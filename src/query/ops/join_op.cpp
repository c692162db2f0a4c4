#include "query/ops/join_op.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/join.hpp"
#include "exec/parallel.hpp"
#include "exec/radix_join.hpp"
#include "exec/sort.hpp"
#include "exec/vector_agg.hpp"
#include "opt/cost_model.hpp"
#include "query/ops/aggregate_op.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;

namespace {

/// One executed join step: the filtered build side, its physical table
/// (dense or hash), and the typed view of the probe key it is probed
/// with (a column on `source_side` of the running match tuple).
struct StepExec {
  const PhysicalJoinStep* phys = nullptr;
  const JoinSpec* spec = nullptr;
  const Table* build_table = nullptr;
  BitVector build_sel;
  std::uint64_t build_rows = 0;
  exec::JoinKeys build_keys;
  exec::JoinKeys source_keys;
  std::size_t source_side = 0;
  /// String/double keys: build-code -> probe-code translation table
  /// (owns the storage the kRemapped build_keys view reads; -1 = the
  /// probe dictionary lacks the value, never matches).
  std::vector<std::int32_t> build_remap;
  /// String/double keys: probe-side dictionary size — remapped keys live
  /// in [-1, code_domain), which sizes the dense arm's address space.
  std::int64_t code_domain = 0;
  std::optional<exec::JoinHashTable> hash;
  std::optional<exec::DenseJoinTable> dense;

  template <typename Fn>
  void probe(std::int64_t key, Fn&& fn) const {
    if (dense.has_value())
      dense->probe(key, fn);
    else
      hash->probe(key, fn);
  }
};

/// Drives the probe stream through every chained step, block-at-a-time.
/// The running match is a tuple of row ids (side 0 = probe table, side s
/// = step s-1's build table); each step appends one side. Matches reach
/// the sink in (probe asc, build₁ asc, build₂ asc, ...) order — the
/// nested-loop oracle's order under the executed step sequence.
class ChainDriver {
 public:
  using Sink =
      std::function<void(const std::uint32_t* const*, std::size_t)>;

  explicit ChainDriver(const std::vector<StepExec>& steps) : steps_(steps) {
    bufs_.resize(steps.size());
    ptrs_.resize(steps.size());
    for (std::size_t s = 1; s < steps.size(); ++s) {
      bufs_[s].resize(s + 2);  // sides 0..s+1
      ptrs_[s].resize(s + 2);
      for (std::size_t side = 0; side <= s + 1; ++side)
        ptrs_[s][side] = bufs_[s][side].data();
    }
    produced_.assign(steps.size(), 0);
  }

  /// Probes selection words [word_begin, word_end) through the chain.
  /// `limit_pairs` (0 = unlimited) stops after that many final matches.
  /// Returns the number of final matches emitted.
  std::uint64_t run(const BitVector& probe_sel, std::size_t word_begin,
                    std::size_t word_end, const Sink& sink,
                    std::uint64_t limit_pairs) {
    sink_ = &sink;
    limit_ = limit_pairs;
    pairs_ = 0;
    stop_ = false;
    const StepExec& first = steps_.front();
    const auto first_sink = [&](const std::uint32_t* b, const std::uint32_t* p,
                                std::size_t k) {
      if (stop_) return;
      produced_[0] += k;
      const std::uint32_t* rows[2] = {p, b};
      next(1, rows, k);
    };
    // Single-step chains early-exit inside the probe driver itself; a
    // longer chain cannot bound step-0 matches from a final-match limit,
    // so emit() raises stop_ and the remaining blocks become no-ops.
    const std::uint64_t probe_limit =
        steps_.size() == 1 ? limit_pairs : 0;
    const auto drive = [&](const auto& table) {
      (void)exec::probe_join_blocks(table, first.source_keys, probe_sel,
                                    word_begin, word_end, first_sink,
                                    probe_limit);
    };
    if (first.dense.has_value())
      drive(*first.dense);
    else
      drive(*first.hash);
    return pairs_;
  }

  /// Feeds pre-matched first-step blocks (the radix arm's partition-pair
  /// output) into the chain tail.
  void feed_first(const std::uint32_t* build_rows,
                  const std::uint32_t* probe_rows, std::size_t count,
                  const Sink& sink) {
    sink_ = &sink;
    if (stop_) return;
    produced_[0] += count;
    const std::uint32_t* rows[2] = {probe_rows, build_rows};
    next(1, rows, count);
  }

  [[nodiscard]] std::uint64_t pairs() const { return pairs_; }
  /// Tuples produced by step s (probe calls into step s+1).
  [[nodiscard]] const std::vector<std::uint64_t>& produced() const {
    return produced_;
  }

 private:
  void next(std::size_t s, const std::uint32_t* const* rows, std::size_t n) {
    if (s == steps_.size()) {
      emit(rows, n);
      return;
    }
    const StepExec& st = steps_[s];
    auto& out = bufs_[s];
    std::size_t k = 0;
    const auto flush = [&] {
      if (k == 0) return;
      produced_[s] += k;
      next(s + 1, ptrs_[s].data(), k);
      k = 0;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (stop_) break;
      const std::uint32_t src = rows[st.source_side][i];
      st.probe(st.source_keys.at(src), [&](std::uint32_t build_row) {
        if (stop_) return;
        for (std::size_t side = 0; side <= s; ++side)
          out[side][k] = rows[side][i];
        out[s + 1][k] = build_row;
        if (++k == exec::kJoinBlockRows) flush();
      });
    }
    flush();
  }

  void emit(const std::uint32_t* const* rows, std::size_t n) {
    if (limit_ != 0 && pairs_ + n >= limit_) {
      n = static_cast<std::size_t>(limit_ - pairs_);
      stop_ = true;
    }
    pairs_ += n;
    if (n != 0) (*sink_)(rows, n);
  }

  const std::vector<StepExec>& steps_;
  /// Per-step output blocks: bufs_[s][side] holds side `side`'s row ids;
  /// ptrs_[s] is the stable pointer table handed downstream.
  std::vector<std::vector<std::array<std::uint32_t, exec::kJoinBlockRows>>>
      bufs_;
  std::vector<std::vector<const std::uint32_t*>> ptrs_;
  std::vector<std::uint64_t> produced_;
  const Sink* sink_ = nullptr;
  std::uint64_t limit_ = 0;
  std::uint64_t pairs_ = 0;
  bool stop_ = false;
};

/// A column reference resolved against the probe table (side 0) or one of
/// the executed build sides (side s = step s-1's build table).
struct Ref {
  const Table* tbl;
  const Column* col;
  std::size_t side;
};

/// 64-aligned chunking of the probe selection for per-chunk ChainDrivers:
/// the grain is a multiple of 64 (selection words are never split across
/// workers), at least a morsel, and sized for ~4 chunks per worker so
/// per-chunk setup (aggregators over dense group domains allocate
/// O(domain)) amortizes over enough rows. Chunk ids address per-chunk
/// result slots, so downstream merges run in CHUNK order — deterministic
/// and equal to the serial traversal order — never completion order.
struct MorselChunks {
  std::size_t grain = 0;
  std::size_t count = 0;
  MorselChunks(std::size_t n, std::size_t workers) {
    const std::size_t target = std::max<std::size_t>(1, workers * 4);
    const std::size_t per = (n + target - 1) / target;
    grain = std::max<std::size_t>(
        64, std::max(exec::kDefaultMorselRows, per) / 64 * 64);
    count = (n + grain - 1) / grain;
  }
};

}  // namespace

QueryResult run_join(OpContext& ctx, const PhysicalPlan& phys,
                     const Table& table, const BitVector& selection) {
  const LogicalPlan& plan = phys.logical;
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;
  // ---- Build-side scans: one filtered selection per step, each its own
  // attributed operator. ----
  const std::size_t n_steps = phys.joins.size();
  std::vector<StepExec> steps(n_steps);
  for (std::size_t s = 0; s < n_steps; ++s) {
    StepExec& st = steps[s];
    st.phys = &phys.joins[s];
    st.spec = &plan.joins[st.phys->logical_index];
    st.build_table = &ctx.catalog.get(st.spec->table);
    if (!st.build_table->complete())
      throw Error("table not fully loaded: " + st.spec->table);
    OperatorScope scope(stats, "scan+filter(" + st.spec->table + ")");
    st.build_sel =
        evaluate_predicates(ctx, *st.build_table, st.spec->predicates);
    st.build_rows = st.build_sel.count();
    st.source_side = st.phys->source_side;
  }

  // ---- Column resolution over all sides: bare names bind to the probe
  // (FROM) table first, then the build tables in execution order;
  // "table.column" qualifies explicitly. ----
  const auto resolve = [&](const std::string& name) -> Ref {
    const auto dot = name.find('.');
    if (dot != std::string::npos) {
      const std::string tbl = name.substr(0, dot);
      const std::string col = name.substr(dot + 1);
      if (tbl == table.name()) return {&table, &table.column(col), 0};
      for (std::size_t s = 0; s < n_steps; ++s)
        if (tbl == steps[s].build_table->name())
          return {steps[s].build_table, &steps[s].build_table->column(col),
                  s + 1};
      throw Error("unknown table in qualified column: " + name);
    }
    if (table.schema().has_column(name))
      return {&table, &table.column(name), 0};
    for (std::size_t s = 0; s < n_steps; ++s)
      if (steps[s].build_table->schema().has_column(name))
        return {steps[s].build_table, &steps[s].build_table->column(name),
                s + 1};
    throw Error("unknown column: " + name);
  };

  // ---- Ledger: charge each (table, column) once for the representation
  // this join actually streams — the packed image for packed-probed key
  // columns, the plain width for every gathered payload/group column.
  // One representation per column per query (the base aggregation path's
  // rule): a key column that any gather consumer also needs is read plain
  // by the key path too, so the once-per-query charge matches the bytes
  // the pipeline touches. ----
  std::set<std::string> plain_required;
  const auto require_plain = [&](const std::string& name) {
    const Ref r = resolve(name);
    plain_required.insert(OpContext::charge_key(*r.tbl, *r.col));
  };
  if (plan.is_aggregate()) {
    for (const AggSpec& a : plan.aggregates)
      if (a.op != AggOp::kCount) require_plain(a.column);
    for (const std::string& name : plan.group_by) {
      const Ref r = resolve(name);
      // Double group keys are consumed as dictionary codes end to end
      // (grouped on int32 codes, decoded from the double dictionary at
      // emit) — they never force a plain read.
      if (r.col->type() == TypeId::kDouble && r.col->has_double_dictionary())
        continue;
      require_plain(name);
    }
  } else {
    for (const std::string& name : plan.projection) require_plain(name);
  }
  if (plan.order_by.has_value() && !plan.is_aggregate())
    require_plain(plan.order_by->column);

  // ---- One operator scope covers the whole join pipeline — key-view
  // resolution, build-table construction, and the probe — so its charges
  // land in one attributed operator. Projections without ORDER BY
  // materialize inside the probe sink, hence the merged name. ----
  std::string op_name;
  for (std::size_t s = 0; s < n_steps; ++s) {
    if (s > 0) op_name += " ";
    op_name += std::string(opt::join_arm_name(phys.joins[s].arm)) + "(" +
               steps[s].build_table->name() + ")";
  }
  const bool stream_materialize =
      !plan.is_aggregate() && !plan.order_by.has_value();
  OperatorScope join_scope(
      stats, stream_materialize ? op_name + "+materialize" : op_name);

  // ---- Join keys, consumed without widening: int64/int32 spans read in
  // place, bit-packed images decoded per probed row. ----
  const auto keys_of = [&](const Table& t, const Column& c) {
    if (use_packed(c, options) &&
        plain_required.count(OpContext::charge_key(t, c)) == 0) {
      ctx.charge_column(t, c, true);
      return exec::JoinKeys::from(c.packed_view());
    }
    ctx.charge_column(t, c, false);
    return c.type() == TypeId::kInt64 ? exec::JoinKeys::from(c.int64_data())
                                      : exec::JoinKeys::from(c.int32_data());
  };
  // Code-domain key columns (double codes, string build codes read for
  // the remap) stream the 4-byte code array; the charge is that byte
  // count unless a plain consumer already forces the full width.
  const auto charge_codes = [&](const Table& t, const Column& c) {
    if (plain_required.count(OpContext::charge_key(t, c)) != 0)
      ctx.charge_column(t, c, false);
    else
      ctx.charge_column_bytes(t, c, 4.0 * static_cast<double>(c.size()));
  };
  for (StepExec& st : steps) {
    const Table& src_tbl =
        st.source_side == 0 ? table : *steps[st.source_side - 1].build_table;
    const Column& src_col = src_tbl.column(st.phys->source_key);
    const Column& bld_col = st.build_table->column(st.spec->right_key);
    switch (st.phys->key_type) {
      case JoinKeyType::kInt:
        st.source_keys = keys_of(src_tbl, src_col);
        st.build_keys = keys_of(*st.build_table, bld_col);
        break;
      case JoinKeyType::kString:
        // Probe side streams its own codes unchanged (packed image is
        // fine — codes are plain int32s to the kernels). The build side's
        // codes are translated into the probe's code domain once, so the
        // probe never touches a string.
        st.source_keys = keys_of(src_tbl, src_col);
        ctx.charge_column(*st.build_table, bld_col, false);
        st.build_remap = bld_col.dictionary().remap_to(src_col.dictionary());
        st.build_keys =
            exec::JoinKeys::remapped(bld_col.codes(), st.build_remap);
        st.code_domain =
            static_cast<std::int64_t>(src_col.dictionary().size());
        break;
      case JoinKeyType::kDouble:
        charge_codes(src_tbl, src_col);
        st.source_keys = exec::JoinKeys::from(src_col.double_codes());
        charge_codes(*st.build_table, bld_col);
        st.build_remap = bld_col.double_dictionary().remap_to(
            src_col.double_dictionary());
        st.build_keys =
            exec::JoinKeys::remapped(bld_col.double_codes(), st.build_remap);
        st.code_domain =
            static_cast<std::int64_t>(src_col.double_dictionary().size());
        break;
    }
    stats.work.cpu_cycles +=
        kDictRemapCyclesPerEntry * static_cast<double>(st.build_remap.size());
  }

  const std::uint64_t probe_rows = selection.count();

  // ---- Physical join tables, per the compiled arm. ----
  static const opt::CostModel default_model = opt::CostModel::defaults();
  const opt::CostModel& cm =
      options.cost_model != nullptr ? *options.cost_model : default_model;
  const bool radix_first =
      n_steps >= 1 && phys.joins[0].arm == opt::JoinArm::kRadixJoin;
  for (std::size_t s = 0; s < n_steps; ++s) {
    StepExec& st = steps[s];
    stats.work.cpu_cycles +=
        kJoinBuildCyclesPerTuple * static_cast<double>(st.build_rows);
    if (s == 0 && radix_first) continue;  // the radix arm partitions instead
    const storage::ColumnStats& ks =
        st.build_table->column(st.spec->right_key).stats();
    if (st.phys->arm == opt::JoinArm::kDenseJoin) {
      // Remapped (string/double) keys live in the probe's code domain
      // [-1, code_domain), not the build column's value range: -1 holds
      // the never-matching slot for values absent from the probe side.
      if (st.phys->key_type != JoinKeyType::kInt)
        st.dense.emplace(exec::build_dense_join_table(
            st.build_keys, st.build_sel, -1, st.code_domain + 1));
      else
        st.dense.emplace(exec::build_dense_join_table(
            st.build_keys, st.build_sel, ks.rows == 0 ? 0 : ks.min,
            std::max<std::int64_t>(1, ks.domain())));
    } else {
      st.hash.emplace(exec::build_join_table(st.build_keys, st.build_sel));
    }
  }

  const bool parallel = options.pool != nullptr &&
                        probe_rows >= options.parallel_join_min_rows;
  const std::size_t sides = n_steps + 1;

  // ==== Aggregate sink: exec::JoinAggregator over multi-side row-id
  // tuples (probe- and build-side inputs, composite cross-table keys). ====
  if (plan.is_aggregate()) {
    std::vector<exec::JoinAggregator::Input> inputs;
    std::map<std::string, std::size_t> input_index;
    std::vector<int> spec_input(plan.aggregates.size(), -1);  // -1 = COUNT
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (a.op == AggOp::kCount) continue;
      const auto it = input_index.find(a.column);
      if (it != input_index.end()) {
        spec_input[ai] = static_cast<int>(it->second);
        continue;
      }
      const Ref r = resolve(a.column);
      ctx.charge_column(*r.tbl, *r.col, false);
      input_index[a.column] = inputs.size();
      spec_input[ai] = static_cast<int>(inputs.size());
      inputs.push_back({agg_input_of(*r.col), r.side});
    }

    // Group keys: any mix of probe- and build-side columns; composite
    // keys use the stride layout of the base aggregation path, with
    // ranges from the cached column statistics.
    struct GroupPart {
      const Column* col;
      const Table* tbl;
      std::size_t side;
      /// Double key grouped on its dictionary codes (decoded at emit).
      bool double_codes = false;
      std::int64_t min = 0;
      std::int64_t max = 0;
      std::int64_t domain = 1;
      std::int64_t stride = 1;
      std::uint64_t distinct = 0;
    };
    std::vector<GroupPart> parts;
    for (const std::string& name : plan.group_by) {
      const Ref r = resolve(name);
      GroupPart part;
      part.col = r.col;
      part.tbl = r.tbl;
      part.side = r.side;
      if (r.col->type() == TypeId::kDouble) {
        if (!r.col->has_double_dictionary())
          throw Error("cannot group by double column " + name +
                      " (no ordered dictionary: column contains NaN)");
        // Group on the int32 codes — dense range [0, dict size), exact
        // distinct count — and decode from the double dictionary at emit.
        charge_codes(*r.tbl, *r.col);
        const auto dsize =
            static_cast<std::int64_t>(r.col->double_dictionary().size());
        part.double_codes = true;
        part.min = 0;
        part.max = std::max<std::int64_t>(0, dsize - 1);
        part.domain = std::max<std::int64_t>(1, dsize);
        part.distinct = static_cast<std::uint64_t>(dsize);
      } else {
        ctx.charge_column(*r.tbl, *r.col, false);
        const storage::ColumnStats& cs = r.col->stats();
        part.min = cs.rows == 0 ? 0 : cs.min;
        part.max = cs.rows == 0 ? 0 : cs.max;
        part.domain = std::max<std::int64_t>(1, cs.domain());
        part.distinct = cs.distinct;
      }
      parts.push_back(part);
    }
    const bool composite = parts.size() > 1;
    const auto key_input = [](const GroupPart& part) {
      return part.double_codes ? exec::AggInput::from(part.col->double_codes())
                               : agg_input_of(*part.col);
    };
    exec::KeyRange range;
    std::vector<exec::JoinAggregator::KeyPart> kparts;
    if (!parts.empty()) {
      if (!composite) {
        const GroupPart& part = parts.front();
        range = {true, part.min, part.max, part.distinct};
        kparts.push_back({key_input(part), part.side, 0, 1});
      } else {
        std::int64_t total = 1;
        for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
          it->stride = total;
          if (it->domain > (std::int64_t{1} << 62) / total)
            throw Error("composite group-by domain too large");
          total *= it->domain;
        }
        for (const GroupPart& part : parts)
          kparts.push_back(
              {key_input(part), part.side, part.min, part.stride});
        range = {true, 0, total - 1};
      }
    }
    const auto make_agg = [&] {
      return plan.has_group_by() ? exec::JoinAggregator(inputs, kparts, range)
                                 : exec::JoinAggregator(inputs);
    };
    exec::JoinAggregator master = make_agg();
    std::vector<std::uint64_t> produced(n_steps, 0);

    if (radix_first) {
      // Radix arm on the first step: partition both sides, join the
      // partition pairs, feed the chain tail (if any) with each block.
      const StepExec& first = steps.front();
      const unsigned bits = cm.pick_radix_bits(first.build_rows);
      const exec::RadixPartitions bparts =
          exec::radix_partition(first.build_keys, first.build_sel, bits);
      const exec::RadixPartitions pparts =
          exec::radix_partition(first.source_keys, selection, bits);
      const std::size_t n_parts = bparts.parts.size();
      stats.work.cpu_cycles +=
          kRadixPartitionCyclesPerTuple *
          static_cast<double>(first.build_rows + probe_rows);
      const auto run_parts = [&](std::size_t begin, std::size_t stride,
                                 exec::JoinAggregator& agg,
                                 std::vector<std::uint64_t>& prod) {
        ChainDriver driver(steps);
        const ChainDriver::Sink sink =
            [&agg](const std::uint32_t* const* rows, std::size_t k) {
              agg.add_block(rows, k);
            };
        for (std::size_t part = begin; part < n_parts; part += stride)
          (void)exec::join_partition_blocks(
              bparts.parts[part], pparts.parts[part],
              [&](const std::uint32_t* b, const std::uint32_t* p,
                  std::size_t k) { driver.feed_first(b, p, k, sink); });
        for (std::size_t s = 0; s < n_steps; ++s)
          prod[s] += driver.produced()[s];
      };
      if (parallel) {
        // Partition-range tasks with private aggregators, merged serially
        // in task order (task t owns partitions t, t + n_tasks, ...) — the
        // merged result is independent of completion order.
        const std::size_t n_tasks =
            std::min(n_parts, ctx.worker_width() * 2);
        std::vector<exec::JoinAggregator> locals;
        std::vector<std::vector<std::uint64_t>> prods(
            n_tasks, std::vector<std::uint64_t>(n_steps, 0));
        locals.reserve(n_tasks);
        for (std::size_t t = 0; t < n_tasks; ++t) locals.push_back(make_agg());
        options.pool->parallel_for(
            n_tasks, 1, [&](std::size_t tb, std::size_t te) {
              for (std::size_t t = tb; t < te; ++t)
                run_parts(t, n_tasks, locals[t], prods[t]);
            });
        for (std::size_t t = 0; t < n_tasks; ++t) {
          master.merge_from(locals[t]);
          for (std::size_t s = 0; s < n_steps; ++s)
            produced[s] += prods[t][s];
        }
      } else {
        run_parts(0, 1, master, produced);
      }
    } else if (parallel) {
      // Morsel-parallel probe over 64-aligned ranges of the selection:
      // per-chunk private aggregators (and chain drivers), stored in
      // chunk-indexed slots and merged IN CHUNK ORDER afterwards. A
      // completion-order merge would let thread scheduling regroup float
      // partials between runs; chunk order makes the merged sums a pure
      // function of the chunking.
      const std::size_t total_words = selection.word_count();
      const MorselChunks chunking(selection.size(), ctx.worker_width());
      std::vector<std::unique_ptr<exec::JoinAggregator>> locals(
          chunking.count);
      std::vector<std::vector<std::uint64_t>> prods(
          chunking.count, std::vector<std::uint64_t>(n_steps, 0));
      options.pool->parallel_for(
          selection.size(), chunking.grain,
          [&](std::size_t begin, std::size_t end) {
            const std::size_t chunk = begin / chunking.grain;
            const std::size_t wb = begin / 64;
            const std::size_t we = std::min(total_words, (end + 63) / 64);
            auto local = std::make_unique<exec::JoinAggregator>(make_agg());
            ChainDriver driver(steps);
            const ChainDriver::Sink sink =
                [&local](const std::uint32_t* const* rows, std::size_t k) {
                  local->add_block(rows, k);
                };
            (void)driver.run(selection, wb, we, sink, 0);
            prods[chunk] = driver.produced();
            locals[chunk] = std::move(local);
          });
      for (std::size_t chunk = 0; chunk < chunking.count; ++chunk) {
        master.merge_from(*locals[chunk]);
        for (std::size_t s = 0; s < n_steps; ++s)
          produced[s] += prods[chunk][s];
      }
    } else {
      ChainDriver driver(steps);
      const ChainDriver::Sink sink =
          [&master](const std::uint32_t* const* rows, std::size_t k) {
            master.add_block(rows, k);
          };
      (void)driver.run(selection, 0, selection.word_count(), sink, 0);
      for (std::size_t s = 0; s < n_steps; ++s)
        produced[s] = driver.produced()[s];
    }

    const std::uint64_t pairs = master.pair_count();
    stats.join_pairs = pairs;
    stats.work.cpu_cycles +=
        kJoinProbeCyclesPerTuple * static_cast<double>(probe_rows);
    for (std::size_t s = 0; s + 1 < n_steps; ++s)
      stats.work.cpu_cycles +=
          kJoinProbeCyclesPerTuple * static_cast<double>(produced[s]);
    join_scope.close();

    // ---- Emit: same decode/emit shape as the base grouped path. ----
    OperatorScope emit_scope(stats, "aggregate(join)");
    const exec::GroupedAggs grouped = master.finish();
    stats.work.cpu_cycles +=
        kAggCyclesPerTuple * static_cast<double>(pairs) *
        static_cast<double>(std::max<std::size_t>(1, inputs.size()));
    if (plan.has_group_by())
      stats.work.cpu_cycles +=
          kGroupCyclesPerTuple * static_cast<double>(pairs);
    stats.groups = plan.has_group_by() ? grouped.group_count() : 1;

    // String group keys late-materialize here: the emitted groups gather
    // from the dictionary payload, and that traffic is charged (bounded
    // by one full dictionary read).
    for (const GroupPart& part : parts)
      if (part.col->type() == TypeId::kString)
        ctx.charge_dict_gather(*part.tbl, *part.col, grouped.group_count());

    std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
    for (const AggSpec& a : plan.aggregates)
      names.push_back(agg_column_name(a));
    QueryResult result(std::move(names));
    for (std::size_t g = 0; g < grouped.group_count(); ++g) {
      std::vector<storage::Value> row;
      row.reserve(parts.size() + plan.aggregates.size());
      if (!parts.empty() && !composite) {
        const GroupPart& part = parts.front();
        if (part.col->type() == TypeId::kString)
          row.emplace_back(part.col->dictionary().at(
              static_cast<std::int32_t>(grouped.keys[g])));
        else if (part.double_codes)
          row.emplace_back(part.col->double_dictionary().at(
              static_cast<std::int32_t>(grouped.keys[g])));
        else
          row.emplace_back(grouped.keys[g]);
      } else {
        for (const GroupPart& part : parts) {
          const std::int64_t component =
              (grouped.keys[g] / part.stride) % part.domain + part.min;
          if (part.col->type() == TypeId::kString)
            row.emplace_back(part.col->dictionary().at(
                static_cast<std::int32_t>(component)));
          else if (part.double_codes)
            row.emplace_back(part.col->double_dictionary().at(
                static_cast<std::int32_t>(component)));
          else
            row.emplace_back(component);
        }
      }
      for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
        const AggSpec& a = plan.aggregates[ai];
        if (spec_input[ai] < 0) {
          row.emplace_back(static_cast<std::int64_t>(grouped.counts[g]));
          continue;
        }
        const auto j = static_cast<std::size_t>(spec_input[ai]);
        exec::AggOut out;
        out.is_double = inputs[j].column.is_double();
        if (out.is_double)
          out.d = grouped.dout[j][g];
        else
          out.i = grouped.iout[j][g];
        row.push_back(agg_out_value(a.op, out));
      }
      result.add_row(std::move(row));
    }
    return result;
  }

  // ==== Projection sink: chain traversal in deterministic (probe asc,
  // build asc per step) order. Without ORDER BY, rows stream straight
  // into the result with LIMIT early-exit; with ORDER BY, the match
  // tuples are collected as row ids, the sort key is gathered once per
  // match, and the heap top-k permutation picks the emitted rows — only
  // those are materialized (and charged). Both sinks go morsel-parallel
  // over 64-aligned selection chunks when a pool is available: chunks
  // collect privately and concatenate in chunk order, which reproduces
  // the serial emit order exactly (an unlimited LIMIT keeps the serial
  // early-exit path). ====
  std::vector<std::string> proj = plan.projection;
  struct ProjCol {
    const Column* col;
    const Table* tbl;
    std::size_t side;
  };
  std::vector<ProjCol> cols;
  cols.reserve(proj.size());
  for (const std::string& name : proj) {
    const Ref r = resolve(name);
    cols.push_back({r.col, r.tbl, r.side});
  }

  QueryResult result(proj);
  ChainDriver driver(steps);
  std::uint64_t pairs = 0;
  const auto charge_probe_cycles =
      [&](const std::vector<std::uint64_t>& step_produced) {
        stats.work.cpu_cycles +=
            kJoinProbeCyclesPerTuple * static_cast<double>(probe_rows);
        for (std::size_t s = 0; s + 1 < n_steps; ++s)
          stats.work.cpu_cycles +=
              kJoinProbeCyclesPerTuple *
              static_cast<double>(step_produced[s]);
      };
  // Drives one private ChainDriver per 64-aligned chunk and hands each
  // chunk's sink output to `collect(chunk)`; returns total pairs after
  // accumulating per-step produced counts (charged like the serial walk).
  const auto run_chunked = [&](const auto& collect) {
    const std::size_t total_words = selection.word_count();
    const MorselChunks chunking(selection.size(), ctx.worker_width());
    std::vector<std::vector<std::uint64_t>> prods(
        chunking.count, std::vector<std::uint64_t>(n_steps, 0));
    std::vector<std::uint64_t> chunk_pairs(chunking.count, 0);
    options.pool->parallel_for(
        selection.size(), chunking.grain,
        [&](std::size_t begin, std::size_t end) {
          const std::size_t chunk = begin / chunking.grain;
          const std::size_t wb = begin / 64;
          const std::size_t we = std::min(total_words, (end + 63) / 64);
          ChainDriver local(steps);
          chunk_pairs[chunk] =
              local.run(selection, wb, we, collect(chunk), 0);
          prods[chunk] = local.produced();
        });
    std::vector<std::uint64_t> step_produced(n_steps, 0);
    std::uint64_t total_pairs = 0;
    for (std::size_t chunk = 0; chunk < chunking.count; ++chunk) {
      total_pairs += chunk_pairs[chunk];
      for (std::size_t s = 0; s < n_steps; ++s)
        step_produced[s] += prods[chunk][s];
    }
    charge_probe_cycles(step_produced);
    return total_pairs;
  };

  if (!plan.order_by.has_value()) {
    const auto gather_row = [&cols](const std::uint32_t* const* rows,
                                    std::size_t e) {
      std::vector<storage::Value> row;
      row.reserve(cols.size());
      for (const ProjCol& c : cols)
        row.push_back(c.col->value_at(rows[c.side][e]));
      return row;
    };
    if (parallel && plan.limit == 0) {
      const MorselChunks chunking(selection.size(), ctx.worker_width());
      std::vector<std::vector<std::vector<storage::Value>>> chunk_rows(
          chunking.count);
      pairs = run_chunked([&](std::size_t chunk) {
        return ChainDriver::Sink(
            [&chunk_rows, chunk, &gather_row](
                const std::uint32_t* const* rows, std::size_t k) {
              for (std::size_t e = 0; e < k; ++e)
                chunk_rows[chunk].push_back(gather_row(rows, e));
            });
      });
      for (auto& chunk : chunk_rows)
        for (auto& row : chunk) result.add_row(std::move(row));
    } else {
      const ChainDriver::Sink sink = [&](const std::uint32_t* const* rows,
                                         std::size_t k) {
        for (std::size_t e = 0; e < k; ++e)
          result.add_row(gather_row(rows, e));
      };
      pairs = driver.run(selection, 0, selection.word_count(), sink,
                         plan.limit);
      charge_probe_cycles(driver.produced());
    }
    for (const ProjCol& c : cols) {
      ctx.charge_gather(*c.tbl, *c.col, static_cast<std::size_t>(pairs));
      if (c.col->type() == TypeId::kString)
        ctx.charge_dict_gather(*c.tbl, *c.col,
                               static_cast<std::size_t>(pairs));
    }
    stats.work.cpu_cycles += kMaterializeCyclesPerValue *
                             static_cast<double>(pairs) *
                             static_cast<double>(cols.size());
  } else {
    // Collect the match tuples (row ids only — late materialization).
    std::vector<std::vector<std::uint32_t>> tuples(sides);
    if (parallel) {
      const MorselChunks chunking(selection.size(), ctx.worker_width());
      std::vector<std::vector<std::vector<std::uint32_t>>> chunk_tuples(
          chunking.count, std::vector<std::vector<std::uint32_t>>(sides));
      pairs = run_chunked([&](std::size_t chunk) {
        return ChainDriver::Sink(
            [&chunk_tuples, chunk, sides](const std::uint32_t* const* rows,
                                          std::size_t k) {
              for (std::size_t side = 0; side < sides; ++side)
                chunk_tuples[chunk][side].insert(
                    chunk_tuples[chunk][side].end(), rows[side],
                    rows[side] + k);
            });
      });
      for (std::size_t side = 0; side < sides; ++side) {
        tuples[side].reserve(static_cast<std::size_t>(pairs));
        for (const auto& chunk : chunk_tuples)
          tuples[side].insert(tuples[side].end(), chunk[side].begin(),
                              chunk[side].end());
      }
    } else {
      const ChainDriver::Sink sink = [&](const std::uint32_t* const* rows,
                                         std::size_t k) {
        for (std::size_t side = 0; side < sides; ++side)
          tuples[side].insert(tuples[side].end(), rows[side],
                              rows[side] + k);
      };
      pairs = driver.run(selection, 0, selection.word_count(), sink, 0);
      charge_probe_cycles(driver.produced());
    }
    join_scope.close();

    OperatorScope sort_scope(
        stats, (plan.limit != 0 ? "top-k(" : "sort(") + plan.order_by->column +
                   ")");
    const Ref key = resolve(plan.order_by->column);
    // One gathered key read per match; the ledger charge is that bounded
    // gather, not the full column.
    ctx.charge_gather(*key.tbl, *key.col, static_cast<std::size_t>(pairs));
    std::vector<std::uint32_t> perm;
    const std::vector<std::uint32_t>& key_rows = tuples[key.side];
    sched::ThreadPool* sort_pool =
        key_rows.size() >= options.parallel_sort_min_rows ? options.pool
                                                          : nullptr;
    const auto gather_keys = [&](auto& keys, const auto& key_at) {
      keys.resize(key_rows.size());
      if (sort_pool != nullptr) {
        sort_pool->parallel_for(key_rows.size(), exec::kDefaultMorselRows,
                                [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t i = begin; i < end; ++i)
                                    keys[i] = key_at(key_rows[i]);
                                });
      } else {
        for (std::size_t i = 0; i < key_rows.size(); ++i)
          keys[i] = key_at(key_rows[i]);
      }
    };
    if (key.col->type() == TypeId::kDouble) {
      std::vector<double> keys;
      const auto data = key.col->double_data();
      gather_keys(keys, [&](std::uint32_t r) { return data[r]; });
      perm = plan.limit != 0
                 ? exec::top_n_permutation_double(keys, plan.limit,
                                                  plan.order_by->ascending,
                                                  sort_pool)
                 : exec::sort_permutation_double(
                       keys, plan.order_by->ascending, sort_pool);
    } else {
      std::vector<std::int64_t> keys;
      gather_keys(keys,
                  [&](std::uint32_t r) { return column_int_at(*key.col, r); });
      perm = plan.limit != 0
                 ? exec::top_n_permutation(keys, plan.limit,
                                           plan.order_by->ascending,
                                           sort_pool)
                 : exec::sort_permutation(keys, plan.order_by->ascending,
                                          sort_pool);
    }
    if (plan.limit != 0 && perm.size() > plan.limit) perm.resize(plan.limit);
    sort_scope.close();

    OperatorScope mat_scope(stats, "materialize(join)");
    for (const ProjCol& c : cols) {
      ctx.charge_gather(*c.tbl, *c.col, perm.size());
      if (c.col->type() == TypeId::kString)
        ctx.charge_dict_gather(*c.tbl, *c.col, perm.size());
    }
    if (options.pool != nullptr &&
        perm.size() >= options.parallel_project_min_rows) {
      std::vector<std::vector<storage::Value>> rows(perm.size());
      options.pool->parallel_for(perm.size(), exec::kDefaultMorselRows,
                                 [&](std::size_t begin, std::size_t end) {
                                   for (std::size_t i = begin; i < end; ++i) {
                                     const std::uint32_t m = perm[i];
                                     std::vector<storage::Value> row;
                                     row.reserve(cols.size());
                                     for (const ProjCol& c : cols)
                                       row.push_back(c.col->value_at(
                                           tuples[c.side][m]));
                                     rows[i] = std::move(row);
                                   }
                                 });
      for (auto& row : rows) result.add_row(std::move(row));
    } else {
      for (const std::uint32_t m : perm) {
        std::vector<storage::Value> row;
        row.reserve(cols.size());
        for (const ProjCol& c : cols)
          row.push_back(c.col->value_at(tuples[c.side][m]));
        result.add_row(std::move(row));
      }
    }
    stats.work.cpu_cycles += kMaterializeCyclesPerValue *
                             static_cast<double>(perm.size()) *
                             static_cast<double>(cols.size());
  }

  stats.join_pairs = pairs;
  return result;
}

}  // namespace eidb::query::ops
