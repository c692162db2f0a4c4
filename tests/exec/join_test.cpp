#include "exec/join.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace eidb::exec {
namespace {

BitVector all_set(std::size_t n) {
  BitVector b(n);
  b.set_all();
  return b;
}

JoinKeys keys_of(const std::vector<std::int64_t>& v) {
  return JoinKeys::from(std::span<const std::int64_t>(v));
}

std::vector<JoinPair> collect_blocks(const JoinHashTable& table,
                                     const JoinKeys& probe,
                                     const BitVector& psel,
                                     std::uint64_t limit = 0) {
  std::vector<JoinPair> out;
  (void)probe_join_blocks(
      table, probe, psel, 0, psel.word_count(),
      [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
        for (std::size_t e = 0; e < k; ++e) out.push_back({b[e], p[e]});
      },
      limit);
  return out;
}

/// The executor's hash arm: build_join_table over the selected build rows,
/// probe_join_blocks over the selected probe rows.
std::vector<JoinPair> hash_pairs(const std::vector<std::int64_t>& build,
                                 const BitVector& bsel,
                                 const std::vector<std::int64_t>& probe,
                                 const BitVector& psel) {
  return collect_blocks(build_join_table(keys_of(build), bsel),
                        keys_of(probe), psel);
}

TEST(HashJoin, SimpleMatch) {
  const std::vector<std::int64_t> build = {1, 2, 3};
  const std::vector<std::int64_t> probe = {2, 4, 1};
  const auto pairs = hash_pairs(build, all_set(3), probe, all_set(3));
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].probe_row, 0u);  // probe[0]=2 matches build[1]
  EXPECT_EQ(pairs[0].build_row, 1u);
  EXPECT_EQ(pairs[1].probe_row, 2u);  // probe[2]=1 matches build[0]
  EXPECT_EQ(pairs[1].build_row, 0u);
}

TEST(HashJoin, DuplicatesProduceCrossProduct) {
  const std::vector<std::int64_t> build = {5, 5};
  const std::vector<std::int64_t> probe = {5, 5, 5};
  const auto pairs = hash_pairs(build, all_set(2), probe, all_set(3));
  EXPECT_EQ(pairs.size(), 6u);
}

TEST(HashJoin, SelectionsRestrictBothSides) {
  const std::vector<std::int64_t> build = {1, 1, 2};
  const std::vector<std::int64_t> probe = {1, 2};
  BitVector bsel(3);
  bsel.set(0);  // only build row 0
  BitVector psel(2);
  psel.set(0);  // only probe row 0
  const auto pairs = hash_pairs(build, bsel, probe, psel);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].build_row, 0u);
  EXPECT_EQ(pairs[0].probe_row, 0u);
}

TEST(HashJoin, NoMatches) {
  const std::vector<std::int64_t> build = {1, 2};
  const std::vector<std::int64_t> probe = {3, 4};
  EXPECT_TRUE(hash_pairs(build, all_set(2), probe, all_set(2)).empty());
}

TEST(HashJoin, EmptySides) {
  const std::vector<std::int64_t> none;
  const std::vector<std::int64_t> some = {1};
  EXPECT_TRUE(hash_pairs(none, BitVector(0), some, all_set(1)).empty());
  EXPECT_TRUE(hash_pairs(some, all_set(1), none, BitVector(0)).empty());
}

TEST(HashJoin, MatchesNestedLoopOracleRandomized) {
  Pcg32 rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t nb = 50 + rng.next_bounded(200);
    const std::size_t np = 50 + rng.next_bounded(200);
    std::vector<std::int64_t> build(nb), probe(np);
    for (auto& k : build) k = rng.next_bounded(40);  // dense keys: many dups
    for (auto& k : probe) k = rng.next_bounded(40);
    BitVector bsel(nb), psel(np);
    for (std::size_t i = 0; i < nb; ++i)
      if (rng.next_double() < 0.7) bsel.set(i);
    for (std::size_t i = 0; i < np; ++i)
      if (rng.next_double() < 0.7) psel.set(i);

    // Same pairs in the same (probe asc, build asc) order.
    const auto got = hash_pairs(build, bsel, probe, psel);
    const auto want = nested_loop_join(build, bsel, probe, psel);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].build_row, want[i].build_row);
      EXPECT_EQ(got[i].probe_row, want[i].probe_row);
    }
  }
}

TEST(HashJoin, NegativeKeys) {
  const std::vector<std::int64_t> build = {-7, 0, 7};
  const std::vector<std::int64_t> probe = {-7, 7};
  const auto pairs = hash_pairs(build, all_set(3), probe, all_set(2));
  EXPECT_EQ(pairs.size(), 2u);
}

// Regression: the preconditions used to accept a selection *larger* than
// the key span (`selection.size() >= keys.size()`), which let the kernels
// read keys out of bounds. They must now demand equal sizes.
TEST(HashJoinDeathTest, OversizedSelectionViolatesPrecondition) {
  const std::vector<std::int64_t> keys = {1, 2, 3};
  BitVector oversized(8);
  oversized.set_all();  // bits 3..7 would index past keys
  EXPECT_DEATH((void)build_join_table(keys_of(keys), oversized),
               "precondition");
  const auto table = build_join_table(keys_of(keys), all_set(3));
  EXPECT_DEATH((void)collect_blocks(table, keys_of(keys), oversized),
               "precondition");
  EXPECT_DEATH((void)nested_loop_join(keys, oversized, keys, all_set(3)),
               "precondition");
  EXPECT_DEATH((void)nested_loop_join(keys, all_set(3), keys, oversized),
               "precondition");
}

// ---------------------------------------------------------------------------
// Block-at-a-time pipeline.
// ---------------------------------------------------------------------------

TEST(JoinBlocks, MatchesPairJoinInOracleOrder) {
  Pcg32 rng(33);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nb = 100 + rng.next_bounded(300);
    const std::size_t np = 100 + rng.next_bounded(500);
    std::vector<std::int64_t> build(nb), probe(np);
    for (auto& k : build) k = rng.next_bounded(60);
    for (auto& k : probe) k = rng.next_bounded(60);
    BitVector bsel(nb), psel(np);
    for (std::size_t i = 0; i < nb; ++i)
      if (rng.next_double() < 0.6) bsel.set(i);
    for (std::size_t i = 0; i < np; ++i)
      if (rng.next_double() < 0.6) psel.set(i);

    const auto table =
        build_join_table(JoinKeys::from(std::span<const std::int64_t>(build)),
                         bsel);
    const auto got = collect_blocks(
        table, JoinKeys::from(std::span<const std::int64_t>(probe)), psel);
    // nested_loop_join emits (probe asc, build asc); the block pipeline's
    // reverse-insertion trick must produce the same order WITHOUT a sort.
    const auto want = nested_loop_join(build, bsel, probe, psel);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].build_row, want[i].build_row) << i;
      EXPECT_EQ(got[i].probe_row, want[i].probe_row) << i;
    }
  }
}

TEST(JoinBlocks, PackedKeysDecodeInPlace) {
  // Pack the probe keys at 6 bits (FOR reference -3) and check the packed
  // view joins identically to the plain spans.
  Pcg32 rng(44);
  std::vector<std::int64_t> build(200), probe(700);
  for (auto& k : build) k = static_cast<std::int64_t>(rng.next_bounded(50)) - 3;
  for (auto& k : probe) k = static_cast<std::int64_t>(rng.next_bounded(50)) - 3;
  std::vector<std::uint64_t> shifted;
  for (const std::int64_t k : probe)
    shifted.push_back(static_cast<std::uint64_t>(k + 3));
  const auto packed = storage::bitpack(shifted, 6);
  const storage::PackedView view{packed, 6, -3, probe.size()};

  const auto table = build_join_table(
      JoinKeys::from(std::span<const std::int64_t>(build)),
      all_set(build.size()));
  const auto plain = collect_blocks(
      table, JoinKeys::from(std::span<const std::int64_t>(probe)),
      all_set(probe.size()));
  const auto via_packed =
      collect_blocks(table, JoinKeys::from(view), all_set(probe.size()));
  ASSERT_EQ(plain.size(), via_packed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].build_row, via_packed[i].build_row) << i;
    EXPECT_EQ(plain[i].probe_row, via_packed[i].probe_row) << i;
  }
}

TEST(JoinBlocks, PackedProbeBlockDecodeBoundaries) {
  // Selection words with 64, 16, 15 and 1 probed lanes straddle the
  // block-decode threshold (16 lanes); the partial last word is read per
  // row. Hash and dense arms must match the nested-loop oracle exactly,
  // order included.
  constexpr std::size_t kNp = 64 * 9 + 37;
  Pcg32 rng(77);
  std::vector<std::int64_t> build(300), probe(kNp);
  for (auto& k : build) k = static_cast<std::int64_t>(rng.next_bounded(90)) - 20;
  for (auto& k : probe) k = static_cast<std::int64_t>(rng.next_bounded(100)) - 20;
  std::vector<std::uint64_t> shifted;
  for (const std::int64_t k : probe)
    shifted.push_back(static_cast<std::uint64_t>(k + 20));
  const auto packed = storage::bitpack(shifted, 7);
  const JoinKeys pk = JoinKeys::from(storage::PackedView{packed, 7, -20, kNp});

  BitVector bsel(build.size());
  for (std::size_t i = 0; i < build.size(); ++i)
    if (rng.next_double() < 0.5) bsel.set(i);
  constexpr std::size_t kLanes[] = {64, 16, 15, 1};
  BitVector psel(kNp);
  for (std::size_t i = 0; i < kNp; ++i) {
    const std::size_t w = i / 64;
    const std::size_t lane = i % 64;
    // Spread each word's lanes (every 64 / lanes-th row) so the decoded
    // lanes are not all at the front of the block.
    const std::size_t lanes = kLanes[w % 4];
    if (w == kNp / 64 || lane % (64 / lanes) == 0) psel.set(i);
  }

  const auto want = nested_loop_join(build, bsel, probe, psel);
  const auto expect_oracle = [&](const std::vector<JoinPair>& got,
                                 const char* arm) {
    ASSERT_EQ(got.size(), want.size()) << arm;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].build_row, want[i].build_row) << arm << " " << i;
      EXPECT_EQ(got[i].probe_row, want[i].probe_row) << arm << " " << i;
    }
  };
  const JoinKeys bk = JoinKeys::from(std::span<const std::int64_t>(build));
  expect_oracle(collect_blocks(build_join_table(bk, bsel), pk, psel), "hash");
  const DenseJoinTable dense = build_dense_join_table(bk, bsel, -20, 90);
  std::vector<JoinPair> got;
  (void)probe_join_blocks(
      dense, pk, psel, 0, psel.word_count(),
      [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
        for (std::size_t e = 0; e < k; ++e) got.push_back({b[e], p[e]});
      });
  expect_oracle(got, "dense");
}

TEST(JoinBlocks, DenseTableMatchesHashTable) {
  Pcg32 rng(66);
  std::vector<std::int64_t> build(400), probe(2000);
  for (auto& k : build) k = static_cast<std::int64_t>(rng.next_bounded(90)) - 40;
  for (auto& k : probe)
    k = static_cast<std::int64_t>(rng.next_bounded(140)) - 60;  // some misses
  BitVector bsel(build.size());
  for (std::size_t i = 0; i < build.size(); ++i)
    if (rng.next_double() < 0.7) bsel.set(i);
  const BitVector psel = all_set(probe.size());
  const JoinKeys bk = JoinKeys::from(std::span<const std::int64_t>(build));
  const JoinKeys pk = JoinKeys::from(std::span<const std::int64_t>(probe));

  const auto hashed = build_join_table(bk, bsel);
  const DenseJoinTable dense =
      build_dense_join_table(bk, bsel, /*min_key=*/-40, /*domain=*/90);
  const auto collect_dense = [&] {
    std::vector<JoinPair> out;
    (void)probe_join_blocks(
        dense, pk, psel, 0, psel.word_count(),
        [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) out.push_back({b[e], p[e]});
        });
    return out;
  };
  const auto want = collect_blocks(hashed, pk, psel);
  const auto got = collect_dense();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].build_row, want[i].build_row) << i;
    EXPECT_EQ(got[i].probe_row, want[i].probe_row) << i;
  }
}

TEST(JoinBlocks, LimitStopsEarly) {
  const std::vector<std::int64_t> build = {5, 5, 5};
  const std::vector<std::int64_t> probe = {5, 5, 5, 5};
  const auto table = build_join_table(
      JoinKeys::from(std::span<const std::int64_t>(build)),
      all_set(build.size()));
  const auto limited = collect_blocks(
      table, JoinKeys::from(std::span<const std::int64_t>(probe)),
      all_set(probe.size()), 7);
  EXPECT_EQ(limited.size(), 7u);  // of 12 possible pairs
}

TEST(JoinBlocks, WordRangesPartitionTheProbe) {
  // Driving disjoint word ranges (the morsel-parallel decomposition) must
  // cover exactly the full probe once.
  Pcg32 rng(55);
  std::vector<std::int64_t> build(64), probe(1000);
  for (auto& k : build) k = rng.next_bounded(30);
  for (auto& k : probe) k = rng.next_bounded(30);
  const BitVector psel = all_set(probe.size());
  const auto table = build_join_table(
      JoinKeys::from(std::span<const std::int64_t>(build)),
      all_set(build.size()));
  const JoinKeys pk = JoinKeys::from(std::span<const std::int64_t>(probe));

  std::vector<JoinPair> whole = collect_blocks(table, pk, psel);
  std::vector<JoinPair> split;
  for (const auto& [wb, we] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 4}, {4, 9},
                                                        {9, 16}}) {
    (void)probe_join_blocks(
        table, pk, psel, wb, we,
        [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) split.push_back({b[e], p[e]});
        });
  }
  ASSERT_EQ(split.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split[i].build_row, whole[i].build_row) << i;
    EXPECT_EQ(split[i].probe_row, whole[i].probe_row) << i;
  }
}

}  // namespace
}  // namespace eidb::exec
