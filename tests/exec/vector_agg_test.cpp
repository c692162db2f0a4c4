// Scalar-reference parity for the single-pass vectorized aggregation
// kernels: every multi_aggregate / grouped_multi_aggregate result must
// match the one-pass-per-column reference kernels bit-for-bit on integer
// data and within FP tolerance on doubles (block summation re-associates).
#include "exec/vector_agg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/expression.hpp"
#include "exec/fused.hpp"
#include "exec/scan_kernels.hpp"
#include "sched/thread_pool.hpp"
#include "storage/table.hpp"
#include "util/rng.hpp"

namespace eidb::exec {
namespace {

struct TestColumns {
  std::vector<std::int32_t> i32;
  std::vector<std::int64_t> i64;
  std::vector<double> f64;
  std::vector<std::int32_t> keys32;
  std::vector<std::int64_t> keys64;
  BitVector selection;
};

TestColumns make_columns(std::size_t n, double keep, std::uint64_t seed,
                         std::int64_t key_domain = 50) {
  TestColumns t;
  Pcg32 rng(seed);
  t.selection = BitVector(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.i32.push_back(static_cast<std::int32_t>(rng.next_in_range(-500, 500)));
    t.i64.push_back(rng.next_in_range(-100000, 100000));
    t.f64.push_back(rng.next_double() * 20 - 10);
    const auto key = rng.next_in_range(0, key_domain - 1);
    t.keys32.push_back(static_cast<std::int32_t>(key));
    t.keys64.push_back(key);
    if (rng.next_double() < keep) t.selection.set(i);
  }
  return t;
}

void expect_agg_eq(const AggResult& want, const AggResult& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.sum, got.sum);
  EXPECT_EQ(want.min, got.min);
  EXPECT_EQ(want.max, got.max);
}

void expect_agg_near(const AggResultD& want, const AggResultD& got) {
  EXPECT_EQ(want.count, got.count);
  EXPECT_NEAR(want.sum, got.sum, 1e-6 * (1.0 + std::abs(want.sum)));
  EXPECT_DOUBLE_EQ(want.min, got.min);
  EXPECT_DOUBLE_EQ(want.max, got.max);
}

TEST(MultiAggregate, MatchesSingleColumnReference) {
  const TestColumns t = make_columns(10'000, 0.4, 42);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i32)),
                                        AggInput::from(std::span(t.i64)),
                                        AggInput::from(std::span(t.f64))};
  const auto outs = multi_aggregate(inputs, t.selection);
  ASSERT_EQ(outs.size(), 3u);
  expect_agg_eq(aggregate_selected(std::span(t.i32), t.selection), outs[0].i);
  expect_agg_eq(aggregate_selected(std::span(t.i64), t.selection), outs[1].i);
  expect_agg_near(aggregate_selected(std::span(t.f64), t.selection),
                  outs[2].d);
}

TEST(MultiAggregate, FullAndEmptySelections) {
  TestColumns t = make_columns(4'096, 1.0, 7);
  t.selection.set_all();  // exercises the branch-free full-word path only
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i64))};
  auto outs = multi_aggregate(inputs, t.selection);
  expect_agg_eq(aggregate_selected(std::span(t.i64), t.selection), outs[0].i);

  t.selection.clear_all();
  outs = multi_aggregate(inputs, t.selection);
  EXPECT_EQ(outs[0].i.count, 0u);
  EXPECT_EQ(outs[0].i.sum, 0);
  EXPECT_EQ(outs[0].i.min, 0);  // aggregate_selected's empty convention
  EXPECT_EQ(outs[0].i.max, 0);
}

TEST(MultiAggregate, UnalignedTail) {
  // Size deliberately not a multiple of 64.
  const TestColumns t = make_columns(1'000 + 17, 0.7, 9);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i32))};
  const auto outs = multi_aggregate(inputs, t.selection);
  expect_agg_eq(aggregate_selected(std::span(t.i32), t.selection), outs[0].i);
}

TEST(MultiAggregate, ParallelMatchesSerial) {
  const TestColumns t = make_columns(100'000, 0.5, 11);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.i64)),
                                        AggInput::from(std::span(t.f64))};
  const auto serial = multi_aggregate(inputs, t.selection);
  sched::ThreadPool pool(4);
  const auto par =
      parallel_multi_aggregate(pool, inputs, t.selection, /*morsel=*/4096);
  expect_agg_eq(serial[0].i, par[0].i);
  expect_agg_near(serial[1].d, par[1].d);
}

void expect_grouped_matches_reference(const TestColumns& t,
                                      const GroupedAggs& g) {
  // References: one pass per column via the classic kernels.
  const auto ref_i64 = group_aggregate(std::span(t.keys64),
                                       std::span(t.i64), t.selection);
  const auto ref_i32 = group_aggregate(std::span(t.keys64),
                                       std::span(t.i32), t.selection);
  const auto ref_d = group_aggregate_d(std::span(t.keys64),
                                       std::span(t.f64), t.selection);
  ASSERT_EQ(g.group_count(), ref_i64.size());
  for (std::size_t i = 0; i < ref_i64.size(); ++i) {
    EXPECT_EQ(g.keys[i], ref_i64[i].key);
    EXPECT_EQ(g.counts[i], ref_i64[i].agg.count);
    expect_agg_eq(ref_i64[i].agg, g.iout[0][i]);
    expect_agg_eq(ref_i32[i].agg, g.iout[1][i]);
    expect_agg_near(ref_d[i].agg, g.dout[2][i]);
  }
}

std::vector<AggInput> three_inputs(const TestColumns& t) {
  return {AggInput::from(std::span(t.i64)), AggInput::from(std::span(t.i32)),
          AggInput::from(std::span(t.f64))};
}

TEST(GroupedMultiAggregate, DenseMatchesReference) {
  const TestColumns t = make_columns(20'000, 0.6, 21, /*key_domain=*/40);
  const auto g = grouped_multi_aggregate(std::span(t.keys64),
                                         three_inputs(t), t.selection);
  expect_grouped_matches_reference(t, g);
}

TEST(GroupedMultiAggregate, HashStrategyMatchesDense) {
  const TestColumns t = make_columns(20'000, 0.6, 22, /*key_domain=*/40);
  const auto dense =
      grouped_multi_aggregate(std::span(t.keys64), three_inputs(t),
                              t.selection, {}, GroupStrategy::kDenseArray);
  const auto hash =
      grouped_multi_aggregate(std::span(t.keys64), three_inputs(t),
                              t.selection, {}, GroupStrategy::kHash);
  ASSERT_EQ(dense.group_count(), hash.group_count());
  for (std::size_t i = 0; i < dense.group_count(); ++i) {
    EXPECT_EQ(dense.keys[i], hash.keys[i]);
    EXPECT_EQ(dense.counts[i], hash.counts[i]);
    expect_agg_eq(dense.iout[0][i], hash.iout[0][i]);
  }
}

TEST(GroupedMultiAggregate, Int32KeysMatchInt64Keys) {
  const TestColumns t = make_columns(20'000, 0.5, 23, /*key_domain=*/64);
  const auto g64 = grouped_multi_aggregate(std::span(t.keys64),
                                           three_inputs(t), t.selection);
  const auto g32 = grouped_multi_aggregate32(std::span(t.keys32),
                                             three_inputs(t), t.selection);
  ASSERT_EQ(g64.group_count(), g32.group_count());
  for (std::size_t i = 0; i < g64.group_count(); ++i) {
    EXPECT_EQ(g64.keys[i], g32.keys[i]);
    EXPECT_EQ(g64.counts[i], g32.counts[i]);
    expect_agg_eq(g64.iout[0][i], g32.iout[0][i]);
    expect_agg_eq(g64.iout[1][i], g32.iout[1][i]);
  }
}

TEST(GroupedMultiAggregate, KnownKeyRangeHintMatchesDerived) {
  const TestColumns t = make_columns(10'000, 0.3, 24, /*key_domain=*/30);
  const KeyRange hint{true, 0, 29};  // from cached stats in the executor
  const auto with_hint = grouped_multi_aggregate(
      std::span(t.keys64), three_inputs(t), t.selection, hint);
  const auto derived = grouped_multi_aggregate(std::span(t.keys64),
                                               three_inputs(t), t.selection);
  ASSERT_EQ(with_hint.group_count(), derived.group_count());
  for (std::size_t i = 0; i < derived.group_count(); ++i) {
    EXPECT_EQ(with_hint.keys[i], derived.keys[i]);
    expect_agg_eq(with_hint.iout[0][i], derived.iout[0][i]);
  }
}

TEST(GroupedMultiAggregate, HashFallbackForOverflowingKeySpread) {
  // Hash-like int64 keys whose spread overflows max - min + 1: the dense
  // test must fail safely (unsigned width) and the hash path must group
  // correctly, including with an explicit stats-derived range.
  constexpr std::int64_t kLo = -5'000'000'000'000'000'000LL;
  constexpr std::int64_t kHi = 5'000'000'000'000'000'000LL;
  std::vector<std::int64_t> keys, values;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(i % 2 == 0 ? kLo : kHi);
    values.push_back(i);
  }
  BitVector sel(keys.size());
  sel.set_all();
  const std::vector<AggInput> inputs = {AggInput::from(std::span(values))};
  for (const KeyRange range : {KeyRange{}, KeyRange{true, kLo, kHi, 2}}) {
    const auto g =
        grouped_multi_aggregate(std::span(keys), inputs, sel, range);
    ASSERT_EQ(g.group_count(), 2u);
    EXPECT_EQ(g.keys[0], kLo);
    EXPECT_EQ(g.keys[1], kHi);
    EXPECT_EQ(g.counts[0], 50u);
    EXPECT_EQ(g.counts[1], 50u);
    EXPECT_EQ(g.iout[0][0].sum, 50 * 49);  // 0+2+...+98
    EXPECT_EQ(g.iout[0][1].sum, 50 * 50);  // 1+3+...+99
  }
  // Parallel variant takes the same unsigned-width decision.
  sched::ThreadPool pool(2);
  const auto par = parallel_grouped_multi_aggregate(
      pool, std::span(keys), inputs, sel, KeyRange{true, kLo, kHi, 2}, 64);
  ASSERT_EQ(par.group_count(), 2u);
  EXPECT_EQ(par.counts[0], 50u);
  EXPECT_EQ(par.iout[0][1].sum, 50 * 50);
}

TEST(GroupedMultiAggregate, EmptySelectionYieldsNoGroups) {
  TestColumns t = make_columns(1'000, 0.0, 25);
  t.selection.clear_all();
  const auto g = grouped_multi_aggregate(std::span(t.keys64),
                                         three_inputs(t), t.selection);
  EXPECT_EQ(g.group_count(), 0u);
}

TEST(GroupedMultiAggregate, ParallelMatchesSerial) {
  const TestColumns t = make_columns(200'000, 0.5, 26, /*key_domain=*/100);
  const auto serial = grouped_multi_aggregate(std::span(t.keys64),
                                              three_inputs(t), t.selection);
  sched::ThreadPool pool(4);
  const auto par = parallel_grouped_multi_aggregate(
      pool, std::span(t.keys64), three_inputs(t), t.selection, {},
      /*morsel=*/8192);
  const auto par32 = parallel_grouped_multi_aggregate32(
      pool, std::span(t.keys32), three_inputs(t), t.selection, {},
      /*morsel=*/8192);
  ASSERT_EQ(serial.group_count(), par.group_count());
  ASSERT_EQ(serial.group_count(), par32.group_count());
  for (std::size_t i = 0; i < serial.group_count(); ++i) {
    EXPECT_EQ(serial.keys[i], par.keys[i]);
    EXPECT_EQ(serial.counts[i], par.counts[i]);
    expect_agg_eq(serial.iout[0][i], par.iout[0][i]);
    expect_agg_eq(serial.iout[1][i], par32.iout[1][i]);
    expect_agg_near(serial.dout[2][i], par.dout[2][i]);
  }
}

// Determinism of the morsel-parallel merges: per-chunk partials fold in
// chunk order, never completion order, so a double SUM over many morsels
// has the same bits on every call and equals a serial fold of per-chunk
// results. Chunks here are exactly `kMorsel` rows: the grouped path sizes
// a chunk as max(morsel, n / (4 * threads)), and kMorsel exceeds the
// second term.
constexpr std::size_t kChunkRows = 50'000;
constexpr std::size_t kMorsel = 4096;

/// `sel` restricted to rows [begin, end).
BitVector chunk_of(const BitVector& sel, std::size_t begin, std::size_t end) {
  BitVector out(sel.size());
  for (std::size_t i = begin; i < std::min(end, sel.size()); ++i)
    if (sel.test(i)) out.set(i);
  return out;
}

TEST(ParallelAggregation, GlobalDoubleSumFoldsInChunkOrder) {
  const TestColumns t = make_columns(kChunkRows, 0.7, 91);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.f64))};
  AggResultD want;
  want.min = std::numeric_limits<double>::infinity();
  want.max = -std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < kChunkRows; b += kMorsel) {
    const AggResultD part =
        multi_aggregate(inputs, chunk_of(t.selection, b, b + kMorsel))[0].d;
    if (part.count == 0) continue;
    want.count += part.count;
    want.sum += part.sum;
    want.min = std::min(want.min, part.min);
    want.max = std::max(want.max, part.max);
  }
  sched::ThreadPool pool(4);
  for (int call = 0; call < 30; ++call) {
    const AggResultD got =
        parallel_multi_aggregate(pool, inputs, t.selection, kMorsel)[0].d;
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.sum),
              std::bit_cast<std::uint64_t>(want.sum))
        << "call " << call;
    ASSERT_EQ(got.min, want.min);
    ASSERT_EQ(got.max, want.max);
  }
}

TEST(ParallelAggregation, GroupedDoubleSumsFoldInChunkOrder) {
  const TestColumns t = make_columns(kChunkRows, 0.7, 92);
  const std::vector<AggInput> inputs = {AggInput::from(std::span(t.f64))};
  const KeyRange range{true, 0, 49};
  std::map<std::int64_t, AggResultD> want;
  for (std::size_t b = 0; b < kChunkRows; b += kMorsel) {
    const GroupedAggs part = grouped_multi_aggregate(
        std::span(t.keys64), inputs, chunk_of(t.selection, b, b + kMorsel),
        range);
    for (std::size_t g = 0; g < part.group_count(); ++g) {
      AggResultD& w = want.try_emplace(part.keys[g]).first->second;
      if (w.count == 0) {
        w.min = std::numeric_limits<double>::infinity();
        w.max = -std::numeric_limits<double>::infinity();
      }
      w.count += part.counts[g];
      w.sum += part.dout[0][g].sum;
      w.min = std::min(w.min, part.dout[0][g].min);
      w.max = std::max(w.max, part.dout[0][g].max);
    }
  }
  sched::ThreadPool pool(4);
  for (int call = 0; call < 30; ++call) {
    const GroupedAggs got = parallel_grouped_multi_aggregate(
        pool, std::span(t.keys64), inputs, t.selection, range, kMorsel);
    ASSERT_EQ(got.group_count(), want.size());
    std::size_t g = 0;
    for (const auto& [key, w] : want) {
      ASSERT_EQ(got.keys[g], key);
      ASSERT_EQ(got.counts[g], w.count);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.dout[0][g].sum),
                std::bit_cast<std::uint64_t>(w.sum))
          << "call " << call << " key " << key;
      ASSERT_EQ(got.dout[0][g].min, w.min);
      ASSERT_EQ(got.dout[0][g].max, w.max);
      ++g;
    }
  }
}

TEST(Int32ValueOverloads, GroupAggregateMatchesWidened) {
  const TestColumns t = make_columns(5'000, 0.5, 27, /*key_domain=*/20);
  std::vector<std::int64_t> widened(t.i32.begin(), t.i32.end());
  const auto want = group_aggregate(std::span(t.keys64), std::span(widened),
                                    t.selection);
  const auto got = group_aggregate(std::span(t.keys64), std::span(t.i32),
                                   t.selection);
  const auto got32 = group_aggregate32(std::span(t.keys32),
                                       std::span(t.i32), t.selection);
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.size(), got32.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].key, got[i].key);
    expect_agg_eq(want[i].agg, got[i].agg);
    expect_agg_eq(want[i].agg, got32[i].agg);
  }
}

TEST(Int32ValueOverloads, ParallelGroupAggregateMatchesWidened) {
  const TestColumns t = make_columns(50'000, 0.4, 28, /*key_domain=*/32);
  std::vector<std::int64_t> widened(t.i32.begin(), t.i32.end());
  sched::ThreadPool pool(4);
  const auto want = parallel_group_aggregate(
      pool, std::span(t.keys64), std::span(widened), t.selection, 4096);
  const auto got = parallel_group_aggregate(
      pool, std::span(t.keys64), std::span(t.i32), t.selection, 4096);
  const auto got32 = parallel_group_aggregate32(
      pool, std::span(t.keys32), std::span(t.i32), t.selection, 4096);
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.size(), got32.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].key, got[i].key);
    expect_agg_eq(want[i].agg, got[i].agg);
    expect_agg_eq(want[i].agg, got32[i].agg);
  }
}

TEST(Int32ValueOverloads, AggregateSelectedMatchesWidened) {
  const TestColumns t = make_columns(5'000, 0.5, 29);
  std::vector<std::int64_t> widened(t.i32.begin(), t.i32.end());
  expect_agg_eq(aggregate_selected(std::span(widened), t.selection),
                aggregate_selected(std::span(t.i32), t.selection));
}

TEST(MaskedScans, Int32AndDoubleMatchUnmaskedConjunction) {
  const TestColumns t = make_columns(10'000, 1.0, 30);
  const std::size_t n = t.i32.size();

  // Reference: two independent bitmap scans ANDed.
  BitVector a(n), b(n);
  scan_bitmap_scalar(std::span(t.i32), -100, 250, a);
  scan_bitmap_double(std::span(t.f64), -2.5, 6.0, b);
  BitVector want = a;
  want &= b;

  // Masked: first scan, then conjuncts evaluated only on live words.
  BitVector got(n);
  scan_bitmap_scalar(std::span(t.i32), -100, 250, got);
  MaskedScanStats stats;
  scan_bitmap_masked_double_counted(std::span(t.f64), -2.5, 6.0, got, stats);
  EXPECT_EQ(want, got);
  EXPECT_GT(stats.words_total, 0u);

  // And the int32 masked kernel against the 64-bit one.
  std::vector<std::int64_t> wide(t.i32.begin(), t.i32.end());
  BitVector m32(n), m64(n);
  scan_bitmap_scalar(std::span(t.i32), -300, 300, m32);
  scan_bitmap_scalar(std::span(t.i32), -300, 300, m64);
  scan_bitmap_masked32(std::span(t.i32), -100, 250, m32);
  scan_bitmap_masked64(std::span(wide), -100, 250, m64);
  EXPECT_EQ(m32, m64);
}

TEST(MaskedScans, SkipsDeadWords) {
  const std::size_t n = 64 * 100;
  std::vector<std::int32_t> values(n, 5);
  BitVector selection(n);
  // Only word 3 has candidates.
  for (std::size_t i = 64 * 3; i < 64 * 4; ++i) selection.set(i);
  MaskedScanStats stats;
  scan_bitmap_masked32_counted(std::span(values), 0, 10, selection, stats);
  EXPECT_EQ(stats.words_total, 100u);
  EXPECT_EQ(stats.words_skipped, 99u);
  EXPECT_EQ(selection.count(), 64u);
}

// ---------------------------------------------------------------------------
// JoinAggregator: gather-based sink of the late-materialized join pipeline.
// ---------------------------------------------------------------------------

TEST(JoinAggregator, GlobalAggregatesGatherBothSides) {
  const std::vector<std::int64_t> probe_vals = {10, 20, 30, 40};
  const std::vector<std::int32_t> build_vals = {1, 2, 3};
  JoinAggregator agg({{AggInput::from(std::span(probe_vals)), false},
                      {AggInput::from(std::span(build_vals)), true}});
  // Matches: (build 0, probe 3), (build 2, probe 1), (build 2, probe 1).
  const std::uint32_t b[] = {0, 2, 2};
  const std::uint32_t p[] = {3, 1, 1};
  agg.add_block(b, p, 3);
  EXPECT_EQ(agg.pair_count(), 3u);
  const GroupedAggs out = agg.finish();
  ASSERT_EQ(out.group_count(), 1u);
  EXPECT_EQ(out.counts[0], 3u);
  EXPECT_EQ(out.iout[0][0].sum, 40 + 20 + 20);  // probe gather
  EXPECT_EQ(out.iout[1][0].sum, 1 + 3 + 3);     // build gather
  EXPECT_EQ(out.iout[1][0].min, 1);
  EXPECT_EQ(out.iout[1][0].max, 3);
}

TEST(JoinAggregator, GlobalEmptyEmitsOneZeroGroup) {
  const std::vector<std::int64_t> vals = {1, 2};
  JoinAggregator agg({{AggInput::from(std::span(vals)), false}});
  const GroupedAggs out = agg.finish();
  ASSERT_EQ(out.group_count(), 1u);
  EXPECT_EQ(out.counts[0], 0u);
  EXPECT_EQ(out.iout[0][0].sum, 0);
  EXPECT_EQ(out.iout[0][0].min, 0);
}

TEST(JoinAggregator, GroupedMatchesManualAccumulation) {
  // Probe-side int keys, one probe input and one build-side double input,
  // checked against a scalar re-computation (dense and hash strategies).
  Pcg32 rng(77);
  std::vector<std::int32_t> keys(500);
  std::vector<std::int64_t> vals(500);
  std::vector<double> weights(40);
  for (auto& k : keys) k = static_cast<std::int32_t>(rng.next_bounded(7));
  for (auto& v : vals) v = rng.next_in_range(-50, 50);
  for (auto& w : weights) w = rng.next_double();
  std::vector<std::uint32_t> b, p;
  for (int i = 0; i < 2000; ++i) {
    b.push_back(rng.next_bounded(40));
    p.push_back(rng.next_bounded(500));
  }
  for (const bool force_hash : {false, true}) {
    const KeyRange range{!force_hash, 0, 6, 7};
    JoinAggregator agg({{AggInput::from(std::span(vals)), false},
                        {AggInput::from(std::span(weights)), true}},
                       {{AggInput::from(std::span(keys)), false, 0, 1}},
                       range);
    agg.add_block(b.data(), p.data(), b.size());
    const GroupedAggs out = agg.finish();

    std::map<std::int64_t, std::pair<std::int64_t, double>> want;  // sums
    std::map<std::int64_t, std::uint64_t> want_count;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const std::int64_t k = keys[p[i]];
      want[k].first += vals[p[i]];
      want[k].second += weights[b[i]];
      ++want_count[k];
    }
    ASSERT_EQ(out.group_count(), want.size());
    for (std::size_t g = 0; g < out.group_count(); ++g) {
      const std::int64_t k = out.keys[g];
      EXPECT_EQ(out.counts[g], want_count[k]) << k;
      EXPECT_EQ(out.iout[0][g].sum, want[k].first) << k;
      EXPECT_DOUBLE_EQ(out.dout[1][g].sum, want[k].second) << k;
    }
  }
}

TEST(JoinAggregator, MergePartialsEqualsSinglePass) {
  Pcg32 rng(88);
  std::vector<std::int64_t> keys(300), vals(300);
  for (auto& k : keys) k = rng.next_in_range(-3, 3);
  for (auto& v : vals) v = rng.next_in_range(0, 99);
  std::vector<std::uint32_t> b(1000), p(1000);
  for (auto& x : b) x = rng.next_bounded(300);
  for (auto& x : p) x = rng.next_bounded(300);

  const KeyRange range{true, -3, 3, 7};
  const auto make = [&] {
    return JoinAggregator({{AggInput::from(std::span(vals)), false}},
                          {{AggInput::from(std::span(keys)), false, 0, 1}},
                          range);
  };
  JoinAggregator whole = make();
  whole.add_block(b.data(), p.data(), b.size());

  JoinAggregator merged = make();
  JoinAggregator part1 = make();
  JoinAggregator part2 = make();
  part1.add_block(b.data(), p.data(), 400);
  part2.add_block(b.data() + 400, p.data() + 400, 600);
  merged.merge_from(part1);
  merged.merge_from(part2);

  const GroupedAggs a = whole.finish();
  const GroupedAggs c = merged.finish();
  ASSERT_EQ(a.group_count(), c.group_count());
  EXPECT_EQ(whole.pair_count(), merged.pair_count());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(a.keys[g], c.keys[g]);
    EXPECT_EQ(a.counts[g], c.counts[g]);
    EXPECT_EQ(a.iout[0][g].sum, c.iout[0][g].sum);
    EXPECT_EQ(a.iout[0][g].min, c.iout[0][g].min);
    EXPECT_EQ(a.iout[0][g].max, c.iout[0][g].max);
  }
}


// ---------------------------------------------------------------------------
// Expression inputs (AggInput::Kind::kExpr): evaluated per selection word
// from the leaves' packed or plain views, they must aggregate bit for bit
// like the fully materialized expression column fed in as a kDouble input.
// Both ride in ONE kernel call, so even the morsel-parallel kernels merge
// them in the same order and the comparison stays exact.
// ---------------------------------------------------------------------------

/// t(p32 packed int32, n64 FOR-packed int64, i32 / i64 plain, f64 double,
/// z int32 with many zeros, k int64 group key, kp packed group key).
storage::Table make_expr_table(std::size_t n, std::uint64_t seed) {
  using storage::Column;
  using storage::Encoding;
  using storage::TypeId;
  storage::Table t("t", storage::Schema({{"p32", TypeId::kInt32},
                                         {"n64", TypeId::kInt64},
                                         {"i32", TypeId::kInt32},
                                         {"i64", TypeId::kInt64},
                                         {"f64", TypeId::kDouble},
                                         {"z", TypeId::kInt32},
                                         {"k", TypeId::kInt64},
                                         {"kp", TypeId::kInt32}}));
  Pcg32 rng(seed);
  std::vector<std::int32_t> p32, i32, z, kp;
  std::vector<std::int64_t> n64, i64, k;
  std::vector<double> f64;
  for (std::size_t i = 0; i < n; ++i) {
    p32.push_back(static_cast<std::int32_t>(rng.next_bounded(1000)));
    n64.push_back(rng.next_in_range(-60'000, -5));
    i32.push_back(static_cast<std::int32_t>(rng.next_in_range(-500, 500)));
    i64.push_back(rng.next_in_range(-100'000, 100'000));
    f64.push_back(rng.next_double() * 20 - 10);
    z.push_back(static_cast<std::int32_t>(rng.next_bounded(3)));
    k.push_back(rng.next_in_range(0, 39));
    kp.push_back(static_cast<std::int32_t>(rng.next_bounded(25)));
  }
  t.set_column(0, Column::from_int32("p32", p32));
  t.set_column(1, Column::from_int64("n64", n64));
  t.set_column(2, Column::from_int32("i32", i32));
  t.set_column(3, Column::from_int64("i64", i64));
  t.set_column(4, Column::from_double("f64", f64));
  t.set_column(5, Column::from_int32("z", z));
  t.set_column(6, Column::from_int64("k", k));
  t.set_column(7, Column::from_int32("kp", kp));
  t.recode("p32", Encoding::kBitPacked);
  t.recode("n64", Encoding::kForBitPacked);
  t.recode("kp", Encoding::kBitPacked);
  for (const char* plain : {"i32", "i64", "z", "k"})
    t.recode(plain, Encoding::kPlain);
  return t;
}

/// Leaf binding as the aggregate operator does it: the packed image when
/// the column has one, the plain array otherwise.
AggInput view_of(const storage::Column& c) {
  if (c.encoded() != nullptr) return AggInput::from(c.packed_view());
  switch (c.type()) {
    case storage::TypeId::kInt64:
      return AggInput::from(c.int64_data());
    case storage::TypeId::kDouble:
      return AggInput::from(c.double_data());
    default:
      return AggInput::from(c.int32_data());
  }
}

using ExprPtr = std::shared_ptr<const Expr>;

ExprPtr col(const char* name) { return Expr::column(name); }
ExprPtr lit(double v) { return Expr::literal(v); }
ExprPtr bin(ExprOp op, ExprPtr l, ExprPtr r) {
  return Expr::binary(op, std::move(l), std::move(r));
}

/// Expressions over every leaf kind: integer-valued (p32 * i64 - n64),
/// packed + double with a literal ((f64 + p32) / 4), IEEE division by a
/// zero-valued column (i32 / z: ±inf and 0/0 NaN), and a right-nested tree
/// that needs a four-slot evaluation stack (n64 * (2.5 - (f64 * z))).
std::vector<ExprPtr> expr_cases() {
  return {
      bin(ExprOp::kSub, bin(ExprOp::kMul, col("p32"), col("i64")),
          col("n64")),
      bin(ExprOp::kDiv, bin(ExprOp::kAdd, col("f64"), col("p32")), lit(4)),
      bin(ExprOp::kDiv, col("i32"), col("z")),
      bin(ExprOp::kMul, col("n64"),
          bin(ExprOp::kSub, lit(2.5), bin(ExprOp::kMul, col("f64"),
                                            col("z")))),
  };
}

/// Selections covering every word shape: all full words (plus the partial
/// tail), dense partial words (block unpack), sparse partial words
/// (per-row random access) and empty.
std::vector<std::pair<const char*, BitVector>> expr_selections(
    std::size_t n) {
  std::vector<std::pair<const char*, BitVector>> out;
  Pcg32 rng(5);
  for (const auto& [name, keep] :
       std::vector<std::pair<const char*, double>>{
           {"full", 1.0}, {"dense", 0.7}, {"sparse", 0.05}, {"empty", 0.0}}) {
    BitVector sel(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.next_double() < keep) sel.set(i);
    out.emplace_back(name, std::move(sel));
  }
  return out;
}

bool same_double(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same(const AggResultD& want, const AggResultD& got,
                 const std::string& label) {
  EXPECT_EQ(want.count, got.count) << label;
  EXPECT_TRUE(same_double(want.sum, got.sum))
      << label << " sum " << want.sum << " vs " << got.sum;
  EXPECT_TRUE(same_double(want.min, got.min))
      << label << " min " << want.min << " vs " << got.min;
  EXPECT_TRUE(same_double(want.max, got.max))
      << label << " max " << want.max << " vs " << got.max;
}

/// {kExpr input, the same expression materialized as a kDouble input}.
struct ExprPair {
  std::vector<double> values;
  std::vector<AggInput> inputs;
};

ExprPair bind_pair(const Expr& e, const storage::Table& t) {
  ExprPair p;
  evaluate_expression(e, t, p.values);
  p.inputs.push_back(AggInput::from(e, t, view_of));
  p.inputs.push_back(AggInput::from(std::span<const double>(p.values)));
  return p;
}

TEST(ExprInput, BindsLeavesToPackedAndPlainViews) {
  const storage::Table t = make_expr_table(1'000, 1);
  const AggInput in = AggInput::from(*expr_cases()[0], t, view_of);
  ASSERT_EQ(in.kind, AggInput::Kind::kExpr);
  EXPECT_TRUE(in.is_double());
  EXPECT_EQ(in.size(), 1'000u);
  ASSERT_EQ(in.expr->leaves.size(), 3u);
  EXPECT_EQ(in.expr->leaves[0].kind, AggInput::Kind::kPacked);  // p32
  EXPECT_EQ(in.expr->leaves[1].kind, AggInput::Kind::kInt64);   // i64
  EXPECT_EQ(in.expr->leaves[2].kind, AggInput::Kind::kPacked);  // n64
  EXPECT_EQ(in.expr->depth, 2u);
  EXPECT_EQ(AggInput::from(*expr_cases()[3], t, view_of).expr->depth, 4u);
}

TEST(ExprInput, RejectsStringAndUnknownLeaves) {
  storage::Table t("t", storage::Schema({{"s", storage::TypeId::kString}}));
  t.set_column(0, storage::Column::from_strings("s", {"a", "b"}));
  EXPECT_THROW((void)AggInput::from(*col("s"), t, view_of), Error);
  EXPECT_THROW((void)AggInput::from(*col("nope"), t, view_of), Error);
}

TEST(ExprInput, DivisionByZeroColumnYieldsInfAndNan) {
  // Guards the IEEE case below against a data change that would leave it
  // without any inf or NaN to compare.
  const storage::Table t = make_expr_table(4'000, 3);
  std::vector<double> v;
  evaluate_expression(*expr_cases()[2], t, v);
  EXPECT_TRUE(std::any_of(v.begin(), v.end(),
                          [](double x) { return std::isinf(x); }));
  EXPECT_TRUE(std::any_of(v.begin(), v.end(),
                          [](double x) { return std::isnan(x); }));
}

TEST(ExprInput, GlobalMatchesMaterializedBitForBit) {
  constexpr std::size_t kN = 4'000;  // not a multiple of 64: partial tail
  const storage::Table t = make_expr_table(kN, 3);
  sched::ThreadPool pool2(2), pool8(8);
  sched::ThreadPool* pools[] = {nullptr, &pool2, &pool8};
  const auto exprs = expr_cases();
  for (const auto& [sel_name, sel] : expr_selections(kN)) {
    for (std::size_t x = 0; x < exprs.size(); ++x) {
      ExprPair p = bind_pair(*exprs[x], t);
      // A leaf shared with a direct aggregate of the same column.
      p.inputs.push_back(view_of(t.column("p32")));
      const auto ref_p32 = multi_aggregate(
          std::vector<AggInput>{view_of(t.column("p32"))}, sel);
      for (sched::ThreadPool* pool : pools) {
        const std::string label = std::string(sel_name) + " expr " +
                                  std::to_string(x) + " pool " +
                                  std::to_string(pool ? pool->thread_count()
                                                      : 0);
        const auto outs =
            pool == nullptr
                ? multi_aggregate(p.inputs, sel)
                : parallel_multi_aggregate(*pool, p.inputs, sel,
                                           /*morsel=*/256);
        ASSERT_EQ(outs.size(), 3u);
        ASSERT_TRUE(outs[0].is_double);
        expect_same(outs[1].d, outs[0].d, label);
        EXPECT_EQ(outs[0].d.count, sel.count()) << label;
        expect_agg_eq(ref_p32[0].i, outs[2].i);
      }
    }
  }
}

TEST(ExprInput, GroupedMatchesMaterializedBitForBit) {
  constexpr std::size_t kN = 4'000;
  const storage::Table t = make_expr_table(kN, 4);
  const auto keys64 = t.column("k").int64_data();
  const std::vector<std::int32_t> keys32(keys64.begin(), keys64.end());
  const storage::PackedView packed_keys = t.column("kp").packed_view();
  sched::ThreadPool pool2(2), pool8(8);
  const auto exprs = expr_cases();
  for (const auto& [sel_name, sel] : expr_selections(kN)) {
    for (std::size_t x = 0; x < exprs.size(); ++x) {
      const ExprPair p = bind_pair(*exprs[x], t);
      const std::string label =
          std::string(sel_name) + " expr " + std::to_string(x);
      std::vector<std::pair<std::string, GroupedAggs>> runs;
      runs.emplace_back("dense", grouped_multi_aggregate(
                                     keys64, p.inputs, sel, {},
                                     GroupStrategy::kDenseArray));
      runs.emplace_back("hash", grouped_multi_aggregate(
                                    keys64, p.inputs, sel, {},
                                    GroupStrategy::kHash));
      runs.emplace_back("int32", grouped_multi_aggregate32(
                                     std::span<const std::int32_t>(keys32),
                                     p.inputs, sel));
      runs.emplace_back("packed-key", grouped_multi_aggregate_packed(
                                          packed_keys, p.inputs, sel));
      for (sched::ThreadPool* pool : {&pool2, &pool8}) {
        const std::string w = std::to_string(pool->thread_count());
        runs.emplace_back("parallel" + w,
                          parallel_grouped_multi_aggregate(
                              *pool, keys64, p.inputs, sel, {}, 256));
        runs.emplace_back("parallel32-" + w,
                          parallel_grouped_multi_aggregate32(
                              *pool, std::span<const std::int32_t>(keys32),
                              p.inputs, sel, {}, 256));
        runs.emplace_back("parallel-packed-key" + w,
                          parallel_grouped_multi_aggregate_packed(
                              *pool, packed_keys, p.inputs, sel, {}, 256));
      }
      for (const auto& [arm, g] : runs) {
        if (sel.count() == 0) {
          EXPECT_EQ(g.group_count(), 0u) << label << " " << arm;
          continue;
        }
        ASSERT_GT(g.group_count(), 0u) << label << " " << arm;
        ASSERT_EQ(g.dout.size(), 2u) << label << " " << arm;
        for (std::size_t i = 0; i < g.group_count(); ++i)
          expect_same(g.dout[1][i], g.dout[0][i],
                      label + " " + arm + " group " + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace eidb::exec
