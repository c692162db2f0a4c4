#include "exec/radix_join.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace eidb::exec {
namespace {

BitVector all_set(std::size_t n) {
  BitVector b(n);
  b.set_all();
  return b;
}

void expect_same(const std::vector<JoinPair>& a,
                 const std::vector<JoinPair>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].build_row, b[i].build_row) << i;
    EXPECT_EQ(a[i].probe_row, b[i].probe_row) << i;
  }
}

TEST(RadixJoin, MatchesNestedLoopJoin) {
  Pcg32 rng(5);
  std::vector<std::int64_t> build(5000), probe(20000);
  for (auto& k : build) k = rng.next_bounded(2000);
  for (auto& k : probe) k = rng.next_bounded(2000);
  const auto want =
      nested_loop_join(build, all_set(build.size()), probe,
                       all_set(probe.size()));
  const auto got = radix_hash_join(build, all_set(build.size()), probe,
                                   all_set(probe.size()), 6);
  expect_same(got, want);
}

TEST(RadixJoin, RespectsSelections) {
  Pcg32 rng(6);
  std::vector<std::int64_t> build(1000), probe(1000);
  for (auto& k : build) k = rng.next_bounded(100);
  for (auto& k : probe) k = rng.next_bounded(100);
  BitVector bsel(build.size()), psel(probe.size());
  for (std::size_t i = 0; i < build.size(); ++i)
    if (rng.next_double() < 0.5) bsel.set(i);
  for (std::size_t i = 0; i < probe.size(); ++i)
    if (rng.next_double() < 0.5) psel.set(i);
  expect_same(radix_hash_join(build, bsel, probe, psel, 4),
              nested_loop_join(build, bsel, probe, psel));
}

TEST(RadixJoin, ParallelPoolMatchesSerial) {
  Pcg32 rng(7);
  std::vector<std::int64_t> build(8000), probe(30000);
  for (auto& k : build) k = rng.next_bounded(5000);
  for (auto& k : probe) k = rng.next_bounded(5000);
  sched::ThreadPool pool(4);
  const auto serial = radix_hash_join(build, all_set(build.size()), probe,
                                      all_set(probe.size()), 5, nullptr);
  const auto parallel = radix_hash_join(build, all_set(build.size()), probe,
                                        all_set(probe.size()), 5, &pool);
  expect_same(parallel, serial);
}

TEST(RadixJoin, SkewedKeysStillCorrect) {
  // 90% of probes hit one hot key: hash-based partitioning keeps it in a
  // single partition, correctness must hold regardless.
  Pcg32 rng(8);
  std::vector<std::int64_t> build = {42, 1, 2, 3};
  std::vector<std::int64_t> probe(10000);
  for (auto& k : probe)
    k = rng.next_double() < 0.9 ? 42 : rng.next_bounded(10);
  expect_same(radix_hash_join(build, all_set(build.size()), probe,
                              all_set(probe.size()), 3),
              nested_loop_join(build, all_set(build.size()), probe,
                               all_set(probe.size())));
}

TEST(RadixJoin, RadixBitsSweep) {
  Pcg32 rng(9);
  std::vector<std::int64_t> build(2000), probe(2000);
  for (auto& k : build) k = rng.next_bounded(500);
  for (auto& k : probe) k = rng.next_bounded(500);
  const auto want =
      nested_loop_join(build, all_set(build.size()), probe,
                       all_set(probe.size()));
  for (const unsigned bits : {1u, 2u, 4u, 8u, 12u}) {
    expect_same(radix_hash_join(build, all_set(build.size()), probe,
                                all_set(probe.size()), bits),
                want);
  }
}

TEST(RadixJoin, EmptyInputs) {
  const std::vector<std::int64_t> none;
  const std::vector<std::int64_t> some = {1, 2};
  EXPECT_TRUE(radix_hash_join(none, BitVector(0), some, all_set(2)).empty());
  EXPECT_TRUE(radix_hash_join(some, all_set(2), none, BitVector(0)).empty());
}

// Regression: the partition pass used to walk the selection without any
// size contract, reading keys[i] out of bounds for oversized selections.
TEST(RadixJoinDeathTest, OversizedSelectionViolatesPrecondition) {
  const std::vector<std::int64_t> keys = {1, 2, 3};
  BitVector oversized(10);
  oversized.set_all();
  EXPECT_DEATH((void)radix_hash_join(keys, oversized, keys, all_set(3), 4),
               "precondition");
  EXPECT_DEATH((void)radix_partition(
                   JoinKeys::from(std::span<const std::int64_t>(keys)),
                   oversized, 4),
               "precondition");
}

TEST(RadixJoin, PartitionBlocksCoverEveryPairExactlyOnce) {
  // The block primitives (radix_partition + join_partition_blocks) must
  // produce the same pair multiset as the nested-loop join.
  Pcg32 rng(11);
  std::vector<std::int64_t> build(3000), probe(9000);
  for (auto& k : build) k = rng.next_bounded(800);
  for (auto& k : probe) k = rng.next_bounded(800);
  BitVector bsel(build.size()), psel(probe.size());
  for (std::size_t i = 0; i < build.size(); ++i)
    if (rng.next_double() < 0.8) bsel.set(i);
  for (std::size_t i = 0; i < probe.size(); ++i)
    if (rng.next_double() < 0.8) psel.set(i);

  const auto bparts = radix_partition(
      JoinKeys::from(std::span<const std::int64_t>(build)), bsel, 5);
  const auto pparts = radix_partition(
      JoinKeys::from(std::span<const std::int64_t>(probe)), psel, 5);
  std::vector<JoinPair> got;
  std::uint64_t emitted = 0;
  for (std::size_t part = 0; part < bparts.parts.size(); ++part) {
    emitted += join_partition_blocks(
        bparts.parts[part], pparts.parts[part],
        [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) got.push_back({b[e], p[e]});
        });
  }
  EXPECT_EQ(emitted, got.size());
  std::sort(got.begin(), got.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.probe_row != b.probe_row) return a.probe_row < b.probe_row;
    return a.build_row < b.build_row;
  });
  expect_same(got, nested_loop_join(build, bsel, probe, psel));
}

}  // namespace
}  // namespace eidb::exec
