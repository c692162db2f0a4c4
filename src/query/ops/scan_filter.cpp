#include "query/ops/scan_filter.hpp"

#include <algorithm>
#include <limits>

#include "exec/fused.hpp"
#include "exec/parallel.hpp"
#include "exec/scan_kernels.hpp"
#include "storage/zonemap.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;

namespace {

/// Integer predicate bounds rewritten into a packed image's reference-
/// shifted domain. Precondition: [lo, hi] overlaps the column's
/// [min, max] (prune_with_stats resolved disjoint/covering predicates),
/// so hi >= reference and the unsigned shift is exact.
struct PackedBounds {
  std::uint64_t lo;
  std::uint64_t hi;
};
PackedBounds packed_bounds(const storage::EncodedSegment& seg,
                           std::int64_t lo, std::int64_t hi) {
  const auto ref = static_cast<std::uint64_t>(seg.reference);
  return {lo <= seg.reference ? 0 : static_cast<std::uint64_t>(lo) - ref,
          static_cast<std::uint64_t>(hi) - ref};
}

/// Stats-based pre-scan pruning: returns true when the predicate was
/// fully resolved from [min, max] alone (all rows match, or none do —
/// `selection` already updated, nothing scanned or charged).
bool prune_with_stats(const Column& column, const BoundRange& r,
                      BitVector& selection) {
  const storage::ColumnStats& s = column.stats();
  if (s.rows == 0) return false;
  const bool all = r.is_double ? (r.dlo <= s.dmin && r.dhi >= s.dmax)
                               : (r.lo <= s.min && r.hi >= s.max);
  if (all) return true;  // every row matches: selection unchanged, no scan
  const bool none = r.is_double ? (r.dhi < s.dmin || r.dlo > s.dmax)
                                : (r.hi < s.min || r.lo > s.max);
  if (none) {
    selection.clear_all();
    return true;
  }
  return false;
}

void apply_predicate(OpContext& ctx, const Table& table, const Predicate& p,
                     BitVector& selection) {
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;
  const Column& column = table.column(p.column);
  const BoundRange r = bind_predicate(column, p);
  if (r.empty) {
    selection.clear_all();
    return;
  }
  // Cached-statistics pruning: a predicate the [min, max] range already
  // decides never touches the data (zone-map logic at table granularity).
  if (prune_with_stats(column, r, selection)) return;

  const std::size_t n = column.size();
  if (n == 0) return;
  stats.tuples_scanned += n;
  stats.work.cpu_cycles += kScanCyclesPerTuple * static_cast<double>(n);
  // Packed consumption: kAuto scans only — explicit variant choices (the
  // E3 bench) must measure exactly the requested plain kernel.
  const bool packed = !r.is_double &&
                      options.scan_variant == exec::ScanVariant::kAuto &&
                      use_packed(column, options);
  ctx.charge_scan(table, column, packed);

  BitVector match(n);
  if (r.is_double) {
    exec::scan_bitmap_double(column.double_data(), r.dlo, r.dhi, match);
  } else if (packed) {
    const storage::EncodedSegment& seg = *column.encoded();
    const auto pb = packed_bounds(seg, r.lo, r.hi);
    if (options.use_zone_maps) {
      // Zone-map pruning composes with the packed image: candidate ranges
      // are widened to 64-value blocks and run through the block scan
      // kernel. Widening is sound — a row outside every candidate range
      // cannot match the predicate (its block's [min, max] excludes it),
      // so the extra evaluated rows contribute no bits — and overlapping
      // widened ranges rewrite identical words. Only the visited fraction
      // of the *packed* bytes stays charged.
      const storage::ZoneMap& zm = table.zone_map(
          table.schema().index_of(p.column), options.zone_block_rows);
      const auto ranges = zm.candidate_ranges(r.lo, r.hi, n);
      std::size_t touched = 0;
      for (const auto& range : ranges) {
        touched += range.end - range.begin;
        const std::size_t b = range.begin & ~std::size_t{63};
        const std::size_t e = std::min(n, (range.end + 63) & ~std::size_t{63});
        exec::scan_packed_bitmap_range(seg.words, seg.bits, b, e, pb.lo,
                                       pb.hi, match);
      }
      const double skipped = static_cast<double>(n - touched);
      const double packed_bpt =
          static_cast<double>(seg.byte_size()) / static_cast<double>(n);
      const double plain_bpt =
          static_cast<double>(storage::physical_size(column.type()));
      stats.work.cpu_cycles -= kScanCyclesPerTuple * skipped;
      stats.work.dram_bytes -= skipped * packed_bpt;
      stats.dram_bytes_saved -= skipped * (plain_bpt - packed_bpt);
    } else if (options.pool != nullptr) {
      exec::parallel_scan_packed_bitmap(*options.pool, seg.words, seg.bits,
                                        n, pb.lo, pb.hi, match);
    } else {
      exec::scan_packed_bitmap(seg.words, seg.bits, n, pb.lo, pb.hi, match);
    }
  } else if (options.use_zone_maps && column.type() != TypeId::kDouble) {
    // Pruned scan: only candidate blocks are touched. The zone map itself
    // is built once per (table, column) and cached. Work is re-estimated
    // to the touched fraction.
    const storage::ZoneMap& zm = table.zone_map(
        table.schema().index_of(p.column), options.zone_block_rows);
    const auto ranges = zm.candidate_ranges(r.lo, r.hi, n);
    std::size_t touched = 0;
    const auto scan_range = [&](auto data) {
      for (const auto& range : ranges) {
        touched += range.end - range.begin;
        for (std::size_t i = range.begin; i < range.end; ++i)
          if (data[i] >= r.lo && data[i] <= r.hi) match.set(i);
      }
    };
    if (column.type() == TypeId::kInt64)
      scan_range(column.int64_data());
    else
      scan_range(column.int32_data());
    // Credit back the untouched bytes/cycles of the full-scan estimate.
    const double skipped = static_cast<double>(n - touched);
    stats.work.cpu_cycles -= kScanCyclesPerTuple * skipped;
    stats.work.dram_bytes -= skipped * storage::physical_size(column.type());
  } else {
    const auto lo32 = [&] {
      return static_cast<std::int32_t>(std::clamp<std::int64_t>(
          r.lo, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max()));
    };
    const auto hi32 = [&] {
      return static_cast<std::int32_t>(std::clamp<std::int64_t>(
          r.hi, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max()));
    };
    switch (options.scan_variant) {
      case exec::ScanVariant::kBranching:
      case exec::ScanVariant::kPredicated: {
        // Index kernels, converted to a bitmap (kept for experiment parity).
        // Scratch buffer is executor-owned: no per-predicate allocation.
        if (ctx.idx_scratch.size() < n) ctx.idx_scratch.resize(n);
        std::size_t k = 0;
        if (column.type() == TypeId::kInt64) {
          k = options.scan_variant == exec::ScanVariant::kBranching
                  ? exec::scan_branching64(column.int64_data(), r.lo, r.hi,
                                           ctx.idx_scratch.data())
                  : exec::scan_predicated64(column.int64_data(), r.lo, r.hi,
                                            ctx.idx_scratch.data());
        } else {
          k = options.scan_variant == exec::ScanVariant::kBranching
                  ? exec::scan_branching(column.int32_data(), lo32(), hi32(),
                                         ctx.idx_scratch.data())
                  : exec::scan_predicated(column.int32_data(), lo32(), hi32(),
                                          ctx.idx_scratch.data());
        }
        for (std::size_t j = 0; j < k; ++j) match.set(ctx.idx_scratch[j]);
        break;
      }
      case exec::ScanVariant::kAvx2:
        if (column.type() == TypeId::kInt64)
          exec::scan_bitmap_avx2_64(column.int64_data(), r.lo, r.hi, match);
        else
          exec::scan_bitmap_avx2(column.int32_data(), lo32(), hi32(), match);
        break;
      case exec::ScanVariant::kAvx512:
        if (column.type() == TypeId::kInt64)
          exec::scan_bitmap_avx512_64(column.int64_data(), r.lo, r.hi, match);
        else
          exec::scan_bitmap_avx512(column.int32_data(), lo32(), hi32(), match);
        break;
      case exec::ScanVariant::kAuto:
        if (options.pool != nullptr) {
          if (column.type() == TypeId::kInt64)
            exec::parallel_scan_bitmap64(*options.pool, column.int64_data(),
                                         r.lo, r.hi, match);
          else
            exec::parallel_scan_bitmap32(*options.pool, column.int32_data(),
                                         lo32(), hi32(), match);
        } else if (column.type() == TypeId::kInt64) {
          exec::scan_bitmap_best64(column.int64_data(), r.lo, r.hi, match);
        } else {
          exec::scan_bitmap_best(column.int32_data(), lo32(), hi32(), match);
        }
        break;
    }
  }
  selection &= match;
}

/// Selection-aware variant for the second and later conjuncts: evaluates
/// only 64-row blocks that still have candidates and charges only the
/// visited fraction.
void apply_predicate_masked(OpContext& ctx, const Table& table,
                            const Predicate& p, BitVector& selection) {
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;
  const Column& column = table.column(p.column);
  const BoundRange r = bind_predicate(column, p);
  if (r.empty) {
    selection.clear_all();
    return;
  }
  if (prune_with_stats(column, r, selection)) return;

  const bool packed = !r.is_double && use_packed(column, options);
  exec::MaskedScanStats ms;
  if (packed) {
    const storage::EncodedSegment& seg = *column.encoded();
    const auto pb = packed_bounds(seg, r.lo, r.hi);
    exec::scan_packed_bitmap_masked_counted(seg.words, seg.bits,
                                            column.size(), pb.lo, pb.hi,
                                            selection, ms);
  } else {
    switch (column.type()) {
      case TypeId::kInt64:
        exec::scan_bitmap_masked64_counted(column.int64_data(), r.lo, r.hi,
                                           selection, ms);
        break;
      case TypeId::kInt32:
      case TypeId::kString: {
        const auto lo = static_cast<std::int32_t>(std::clamp<std::int64_t>(
            r.lo, std::numeric_limits<std::int32_t>::min(),
            std::numeric_limits<std::int32_t>::max()));
        const auto hi = static_cast<std::int32_t>(std::clamp<std::int64_t>(
            r.hi, std::numeric_limits<std::int32_t>::min(),
            std::numeric_limits<std::int32_t>::max()));
        exec::scan_bitmap_masked32_counted(column.int32_data(), lo, hi,
                                           selection, ms);
        break;
      }
      case TypeId::kDouble:
        exec::scan_bitmap_masked_double_counted(column.double_data(), r.dlo,
                                                r.dhi, selection, ms);
        break;
    }
  }
  // Charge only what was visited: dead 64-row blocks cost neither cycles
  // nor DRAM traffic — this is where ordering predicates most-selective-
  // first saves joules. Packed reads charge the packed bytes per tuple.
  const std::size_t visited = std::min(
      column.size(),
      static_cast<std::size_t>(ms.words_total - ms.words_skipped) * 64);
  const double plain_bpt =
      static_cast<double>(storage::physical_size(column.type()));
  double bytes_per_tuple = plain_bpt;
  if (packed && column.size() > 0) {
    bytes_per_tuple = static_cast<double>(column.scan_byte_size()) /
                      static_cast<double>(column.size());
    ++stats.packed_column_reads;
    stats.dram_bytes_saved +=
        static_cast<double>(visited) * (plain_bpt - bytes_per_tuple);
  }
  stats.tuples_scanned += visited;
  stats.work.cpu_cycles += kScanCyclesPerTuple * static_cast<double>(visited);
  stats.work.dram_bytes += static_cast<double>(visited) * bytes_per_tuple;
  ctx.charge_tier(table, column);
}

}  // namespace

BoundRange bind_predicate(const Column& column, const Predicate& p) {
  BoundRange r;
  switch (column.type()) {
    case TypeId::kInt32:
    case TypeId::kInt64:
      r.lo = p.lo.as_int();
      r.hi = p.hi.as_int();
      r.empty = r.lo > r.hi;
      return r;
    case TypeId::kDouble:
      r.is_double = true;
      r.dlo = p.lo.as_double();
      r.dhi = p.hi.as_double();
      r.empty = r.dlo > r.dhi;
      return r;
    case TypeId::kString: {
      if (!p.lo.is_string() || !p.hi.is_string())
        throw Error("string column " + column.name() +
                    " requires string bounds");
      const storage::Dictionary& dict = column.dictionary();
      // Inclusive string range [lo, hi] -> inclusive code range.
      r.lo = dict.lower_bound(p.lo.as_string());
      r.hi = dict.upper_bound(p.hi.as_string()) - 1;
      r.empty = r.lo > r.hi;
      return r;
    }
  }
  throw Error("invalid column type");
}

double estimate_predicate_selectivity(const Column& column,
                                      const Predicate& p) {
  const BoundRange r = bind_predicate(column, p);
  if (r.empty) return 0.0;
  const storage::ColumnStats& s = column.stats();
  return r.is_double ? s.range_selectivity(r.dlo, r.dhi)
                     : s.range_selectivity(r.lo, r.hi);
}

bool use_packed(const Column& column, const ExecOptions& options) {
  // The byte-size guard keeps the dram(packed) <= dram(plain) ledger
  // invariant unconditional: a forced encoding whose word-rounded image
  // exceeds the plain array (tiny column, near-full width) is simply not
  // consumed — the executor reads plain instead of charging more.
  return options.use_encodings && column.encoded() != nullptr &&
         column.type() != TypeId::kDouble &&
         column.scan_byte_size() <= column.byte_size();
}

std::vector<const Predicate*> order_conjuncts(
    const Table& table, const std::vector<Predicate>& preds) {
  // Most-selective-first ordering: the first conjunct kills the most rows,
  // so the masked scans that follow skip the most blocks.
  std::vector<const Predicate*> ordered;
  ordered.reserve(preds.size());
  for (const Predicate& p : preds) ordered.push_back(&p);
  if (ordered.size() > 1) {
    std::vector<double> sel(ordered.size());
    for (std::size_t i = 0; i < ordered.size(); ++i)
      sel[i] = estimate_predicate_selectivity(
          table.column(ordered[i]->column), *ordered[i]);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const Predicate* a, const Predicate* b) {
                       return sel[static_cast<std::size_t>(a - preds.data())] <
                              sel[static_cast<std::size_t>(b - preds.data())];
                     });
  }
  return ordered;
}

BitVector evaluate_predicates(OpContext& ctx, const Table& table,
                              const std::vector<Predicate>& preds) {
  BitVector selection(table.row_count());
  selection.set_all();

  const std::vector<const Predicate*> ordered =
      order_conjuncts(table, preds);

  // Masked (selection-aware) evaluation needs the adaptive kernels; the
  // explicit-variant and zone-map paths keep per-predicate full scans so
  // experiments measure exactly the requested kernel.
  const bool can_mask = ctx.options.scan_variant == exec::ScanVariant::kAuto &&
                        !ctx.options.use_zone_maps;
  bool first = true;
  for (const Predicate* p : ordered) {
    if (first || !can_mask)
      apply_predicate(ctx, table, *p, selection);
    else
      apply_predicate_masked(ctx, table, *p, selection);
    first = false;
  }
  return selection;
}

}  // namespace eidb::query::ops
