// Fused and short-circuit kernels (paper §IV.B, citing Neumann [14]).
//
// "Recent developments focus on efficient code generation as an alternative
// to build a data-flow graph based on pre-compiled plan operators." The
// measurable core of compiled plans is *fusion*: one pass that filters and
// aggregates keeps tuples in registers, where operator-at-a-time execution
// materializes a selection bitmap and re-reads the data. These kernels are
// the hand-fused equivalents the A3 ablation compares against the
// materializing pipeline.
#pragma once

#include <cstdint>
#include <span>

#include "exec/aggregate.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// One-pass filter(lo <= k <= hi on keys) + aggregate(values): the fused
/// `scan -> filter -> agg` pipeline over two columns.
[[nodiscard]] AggResult fused_filter_aggregate(
    std::span<const std::int64_t> keys, std::int64_t lo, std::int64_t hi,
    std::span<const std::int64_t> values);

/// Same-column special case: filter and aggregate the same values.
[[nodiscard]] AggResult fused_filter_aggregate_self(
    std::span<const std::int64_t> values, std::int64_t lo, std::int64_t hi);

/// Masked (short-circuit) conjunctive scan: evaluates the predicate only
/// where `selection` still has candidates, skipping fully dead 64-tuple
/// words — the win grows as earlier predicates get more selective.
/// Updates `selection` in place (logical AND).
void scan_bitmap_masked64(std::span<const std::int64_t> values,
                          std::int64_t lo, std::int64_t hi,
                          BitVector& selection);

/// Statistics from the last masked scan (words skipped vs. visited) — for
/// tests, the A3 ablation and the executor's visited-bytes charge.
/// Returned by the _counted variants.
struct MaskedScanStats {
  std::uint64_t words_total = 0;
  std::uint64_t words_skipped = 0;
};

/// Word-range end meaning "through the column's last selection word".
inline constexpr std::size_t kAllWords = ~std::size_t{0};

// The _counted variants evaluate selection words [word_begin, word_end)
// only — rows [64 * word_begin, min(64 * word_end, column size)) — and
// reset `stats` to that range's words. Disjoint word ranges touch disjoint
// selection words, so they may run concurrently on one selection: this is
// the morsel-parallel form the executor fans out, summing the per-range
// stats. The defaults cover the whole column.

void scan_bitmap_masked64_counted(std::span<const std::int64_t> values,
                                  std::int64_t lo, std::int64_t hi,
                                  BitVector& selection,
                                  MaskedScanStats& stats,
                                  std::size_t word_begin = 0,
                                  std::size_t word_end = kAllWords);

/// int32 / dictionary-code masked conjunctive scan.
void scan_bitmap_masked32(std::span<const std::int32_t> values,
                          std::int32_t lo, std::int32_t hi,
                          BitVector& selection);

void scan_bitmap_masked32_counted(std::span<const std::int32_t> values,
                                  std::int32_t lo, std::int32_t hi,
                                  BitVector& selection,
                                  MaskedScanStats& stats,
                                  std::size_t word_begin = 0,
                                  std::size_t word_end = kAllWords);

/// Double masked conjunctive scan.
void scan_bitmap_masked_double(std::span<const double> values, double lo,
                               double hi, BitVector& selection);

void scan_bitmap_masked_double_counted(std::span<const double> values,
                                       double lo, double hi,
                                       BitVector& selection,
                                       MaskedScanStats& stats,
                                       std::size_t word_begin = 0,
                                       std::size_t word_end = kAllWords);

/// Masked conjunctive scan over a bit-packed column image: dead 64-row
/// selection words are skipped without unpacking anything; live words
/// unpack one 64-value block and AND the range match into `selection`.
/// `lo`/`hi` are in the packed (reference-shifted) domain.
void scan_packed_bitmap_masked_counted(std::span<const std::uint64_t> packed,
                                       unsigned bits, std::size_t count,
                                       std::uint64_t lo, std::uint64_t hi,
                                       BitVector& selection,
                                       MaskedScanStats& stats,
                                       std::size_t word_begin = 0,
                                       std::size_t word_end = kAllWords);

}  // namespace eidb::exec
