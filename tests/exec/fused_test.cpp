#include "exec/fused.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/scan_kernels.hpp"
#include "storage/bitpack.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

TEST(Fused, FilterAggregateMatchesPipeline) {
  Pcg32 rng(3);
  std::vector<std::int64_t> keys(50000), values(50000);
  for (auto& k : keys) k = rng.next_bounded(1000);
  for (auto& v : values) v = rng.next_in_range(-500, 500);

  const AggResult fused = fused_filter_aggregate(keys, 100, 399, values);

  BitVector sel(keys.size());
  scan_bitmap_best64(keys, 100, 399, sel);
  const AggResult pipeline = aggregate_selected(values, sel);

  EXPECT_EQ(fused.count, pipeline.count);
  EXPECT_EQ(fused.sum, pipeline.sum);
  EXPECT_EQ(fused.min, pipeline.min);
  EXPECT_EQ(fused.max, pipeline.max);
}

TEST(Fused, SelfAggregate) {
  const std::vector<std::int64_t> v = {1, 5, 10, 15, 20};
  const AggResult r = fused_filter_aggregate_self(v, 5, 15);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.sum, 30);
  EXPECT_EQ(r.min, 5);
  EXPECT_EQ(r.max, 15);
}

TEST(Fused, EmptyMatchSet) {
  const std::vector<std::int64_t> v = {1, 2, 3};
  const AggResult r = fused_filter_aggregate_self(v, 100, 200);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.min, 0);
  EXPECT_EQ(r.max, 0);
}

TEST(Fused, NegativeBounds) {
  const std::vector<std::int64_t> v = {-10, -5, 0, 5};
  const AggResult r = fused_filter_aggregate_self(v, -7, 1);
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.sum, -5);
}

TEST(MaskedScan, EquivalentToUnmaskedConjunction) {
  Pcg32 rng(4);
  std::vector<std::int64_t> a(30000), b(30000);
  for (auto& x : a) x = rng.next_bounded(1000);
  for (auto& x : b) x = rng.next_bounded(1000);

  // Reference: two full bitmaps ANDed.
  BitVector ref(a.size());
  scan_bitmap_best64(a, 0, 99, ref);
  BitVector rb(b.size());
  scan_bitmap_best64(b, 500, 599, rb);
  ref &= rb;

  // Masked: first predicate full, second short-circuit.
  BitVector sel(a.size());
  scan_bitmap_best64(a, 0, 99, sel);
  scan_bitmap_masked64(b, 500, 599, sel);

  EXPECT_EQ(sel, ref);
}

TEST(MaskedScan, SkipsDeadWords) {
  // First predicate kills everything except one narrow region.
  std::vector<std::int64_t> a(64 * 100, 0);
  for (std::size_t i = 64 * 50; i < 64 * 51; ++i) a[i] = 7;
  std::vector<std::int64_t> b(a.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int64_t>(i % 3);

  BitVector sel(a.size());
  scan_bitmap_best64(a, 7, 7, sel);  // only word 50 live
  MaskedScanStats stats;
  scan_bitmap_masked64_counted(b, 0, 1, sel, stats);
  EXPECT_EQ(stats.words_total, 100u);
  EXPECT_EQ(stats.words_skipped, 99u);
  // Correctness in the surviving word.
  for (std::size_t i = 64 * 50; i < 64 * 51; ++i)
    EXPECT_EQ(sel.test(i), b[i] <= 1);
}

TEST(MaskedScan, AllLiveSkipsNothing) {
  Pcg32 rng(5);
  std::vector<std::int64_t> v(6400);
  for (auto& x : v) x = rng.next_bounded(10);
  BitVector sel(v.size());
  sel.set_all();
  MaskedScanStats stats;
  scan_bitmap_masked64_counted(v, 0, 9, sel, stats);
  EXPECT_EQ(stats.words_skipped, 0u);
  EXPECT_EQ(sel.count(), v.size());
}

/// Starting selection with every kind of word: dead, full, and 1 / 15 /
/// 16 / random live lanes, cycling per word.
BitVector mixed_selection(std::size_t n, Pcg32& rng) {
  BitVector sel(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = i % 64;
    bool on = false;
    switch ((i / 64) % 6) {
      case 0: on = false; break;
      case 1: on = true; break;
      case 2: on = lane == 7; break;
      case 3: on = lane < 15; break;
      case 4: on = lane >= 48; break;
      default: on = rng.next_bounded(2) == 0; break;
    }
    if (on) sel.set(i);
  }
  return sel;
}

TEST(MaskedScan, RangeSplitsMatchWholeColumn) {
  // 64-aligned word ranges (the morsel-parallel form) with a ragged tail
  // must rewrite exactly the words one whole-column call rewrites, and
  // their stats must sum to the whole-column stats.
  constexpr std::size_t kN = 64 * 41 + 23;
  const std::size_t kWords = (kN + 63) / 64;
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 1}, {1, 6}, {6, 7}, {7, 20}, {20, 40}, {40, kWords}};
  Pcg32 rng(21);

  // run(selection, stats, word_begin, word_end) applies one kernel.
  const auto check = [&](const std::string& label, const auto& run) {
    Pcg32 sel_rng(5);
    const BitVector start = mixed_selection(kN, sel_rng);
    BitVector whole = start;
    MaskedScanStats whole_stats;
    run(whole, whole_stats, 0, kAllWords);
    EXPECT_EQ(whole_stats.words_total, kWords) << label;

    BitVector split = start;
    MaskedScanStats sum;
    for (const auto& [wb, we] : ranges) {
      MaskedScanStats part;
      run(split, part, wb, we);
      sum.words_total += part.words_total;
      sum.words_skipped += part.words_skipped;
    }
    EXPECT_EQ(split, whole) << label;
    EXPECT_EQ(sum.words_total, whole_stats.words_total) << label;
    EXPECT_EQ(sum.words_skipped, whole_stats.words_skipped) << label;
    EXPECT_LT(whole.count(), start.count()) << label;  // the scan filtered
  };

  for (const unsigned bits : {4u, 6u, 8u, 17u}) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint64_t> values(kN);
    for (auto& v : values) v = rng.next64() & mask;
    const auto packed = storage::bitpack(values, bits);
    const std::uint64_t lo = mask / 4;
    const std::uint64_t hi = mask / 2;
    check("packed" + std::to_string(bits),
          [&](BitVector& sel, MaskedScanStats& st, std::size_t wb,
              std::size_t we) {
            scan_packed_bitmap_masked_counted(packed, bits, kN, lo, hi, sel,
                                              st, wb, we);
          });
    // The per-range words agree with an unmasked scan ANDed in.
    BitVector want(kN);
    scan_packed_bitmap(packed, bits, kN, lo, hi, want);
    Pcg32 sel_rng(5);
    BitVector got = mixed_selection(kN, sel_rng);
    want &= got;
    for (const auto& [wb, we] : ranges) {
      MaskedScanStats part;
      scan_packed_bitmap_masked_counted(packed, bits, kN, lo, hi, got, part,
                                        wb, we);
    }
    EXPECT_EQ(got, want) << "packed" << bits;
  }

  std::vector<std::int32_t> i32(kN);
  std::vector<std::int64_t> i64(kN);
  std::vector<double> f64(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    i32[i] = static_cast<std::int32_t>(rng.next_bounded(1000)) - 500;
    i64[i] = static_cast<std::int64_t>(rng.next_bounded(1000)) - 500;
    f64[i] = rng.next_double() * 10.0 - 5.0;
  }
  check("int32", [&](BitVector& sel, MaskedScanStats& st, std::size_t wb,
                     std::size_t we) {
    scan_bitmap_masked32_counted(i32, -200, 100, sel, st, wb, we);
  });
  check("int64", [&](BitVector& sel, MaskedScanStats& st, std::size_t wb,
                     std::size_t we) {
    scan_bitmap_masked64_counted(i64, -200, 100, sel, st, wb, we);
  });
  check("double", [&](BitVector& sel, MaskedScanStats& st, std::size_t wb,
                      std::size_t we) {
    scan_bitmap_masked_double_counted(f64, -1.5, 2.25, sel, st, wb, we);
  });
}

}  // namespace
}  // namespace eidb::exec
