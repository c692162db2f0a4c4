#include "storage/bitpack.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace eidb::storage {
namespace {

TEST(BitPack, WordCount) {
  EXPECT_EQ(packed_word_count(0, 13), 0u);
  EXPECT_EQ(packed_word_count(64, 1), 1u);
  EXPECT_EQ(packed_word_count(65, 1), 2u);
  EXPECT_EQ(packed_word_count(10, 64), 10u);
  EXPECT_EQ(packed_word_count(100, 0), 0u);
}

TEST(BitPack, MinBits) {
  EXPECT_EQ(min_bits(std::vector<std::uint64_t>{}), 0u);
  EXPECT_EQ(min_bits(std::vector<std::uint64_t>{0, 0}), 0u);
  EXPECT_EQ(min_bits(std::vector<std::uint64_t>{1}), 1u);
  EXPECT_EQ(min_bits(std::vector<std::uint64_t>{255}), 8u);
  EXPECT_EQ(min_bits(std::vector<std::uint64_t>{256}), 9u);
  EXPECT_EQ(min_bits(std::vector<std::uint64_t>{~std::uint64_t{0}}), 64u);
}

TEST(BitPack, ZeroWidthRoundTrip) {
  const std::vector<std::uint64_t> values(100, 0);
  const auto packed = bitpack(values, 0);
  EXPECT_TRUE(packed.empty());
  std::vector<std::uint64_t> out(100, 123);
  bitunpack(packed, 0, 100, out);
  for (const auto v : out) EXPECT_EQ(v, 0u);
}

TEST(BitPack, FullWidthRoundTrip) {
  Pcg32 rng(3);
  std::vector<std::uint64_t> values(257);
  for (auto& v : values) v = rng.next64();
  const auto packed = bitpack(values, 64);
  std::vector<std::uint64_t> out(values.size());
  bitunpack(packed, 64, values.size(), out);
  EXPECT_EQ(out, values);
}

TEST(BitPack, RandomAccessMatchesUnpack) {
  Pcg32 rng(5);
  std::vector<std::uint64_t> values(300);
  for (auto& v : values) v = rng.next() & 0x1fff;  // 13 bits
  const auto packed = bitpack(values, 13);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(bitpacked_at(packed, 13, i), values[i]) << i;
}

// Property sweep: round-trip for every width 1..64 on random data masked to
// the width, with a non-multiple-of-64 count to cover the tail path.
class BitPackWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitPackWidthSweep, RoundTrip) {
  const unsigned bits = GetParam();
  Pcg32 rng(1000 + bits);
  constexpr std::size_t kN = 64 * 3 + 17;
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<std::uint64_t> values(kN);
  for (auto& v : values) v = rng.next64() & mask;
  // Ensure the extremes appear.
  values[0] = 0;
  values[1] = mask;

  const auto packed = bitpack(values, bits);
  EXPECT_EQ(packed.size(), packed_word_count(kN, bits));
  std::vector<std::uint64_t> out(kN);
  bitunpack(packed, bits, kN, out);
  EXPECT_EQ(out, values);

  // Random access agrees everywhere.
  for (std::size_t i = 0; i < kN; i += 7)
    EXPECT_EQ(bitpacked_at(packed, bits, i), values[i]);
}

// Every full 64-value block read through bitunpack_block64 equals the
// packed values. Each width has its own unrolled unpacker, so every width
// is checked (width 0 in BitPackDegenerateWidths), with 0 and 2^bits - 1
// at a different lane in every block. The image holds exactly the full
// blocks, so a lane reading past its block's `bits` words overruns the
// image (caught under ASan).
TEST_P(BitPackWidthSweep, Block64) {
  const unsigned bits = GetParam();
  Pcg32 rng(2000 + bits);
  constexpr std::size_t kBlocks = 5;
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<std::uint64_t> values(64 * kBlocks);
  for (auto& v : values) v = rng.next64() & mask;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    values[b * 64 + (b * 17) % 64] = 0;
    values[b * 64 + (b * 29 + 5) % 64] = mask;
  }
  const auto packed = bitpack(values, bits);
  ASSERT_EQ(packed.size(), kBlocks * bits);
  for (std::size_t block = 0; block < values.size(); block += 64) {
    std::uint64_t out[64];
    bitunpack_block64(packed, bits, block, out);
    for (std::size_t i = 0; i < 64; ++i)
      ASSERT_EQ(out[i], values[block + i])
          << "bits " << bits << " block " << block / 64 << " lane " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthSweep,
                         ::testing::Range(1u, 65u));

// -- Degenerate-width regressions (all-equal / empty columns) ----------------
// Width 0 — the packed image holds no words at all — and width 1 are the
// encoder's edge cases: block unpack, random access and the PackedView
// decode must all round-trip exactly.

TEST(BitPackDegenerateWidths, WidthZeroBlockAndRandomAccess) {
  constexpr std::size_t kN = 64 * 2 + 9;
  const std::vector<std::uint64_t> values(kN, 0);
  const auto packed = bitpack(values, 0);
  EXPECT_EQ(packed.size(), 0u);
  std::uint64_t out[64];
  bitunpack_block64(packed, 0, 64, out);  // must not touch `packed`
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], 0u);
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_EQ(bitpacked_at(packed, 0, i), 0u);
}

TEST(BitPackDegenerateWidths, WidthOneRoundTrip) {
  Pcg32 rng(77);
  constexpr std::size_t kN = 64 * 2 + 31;
  std::vector<std::uint64_t> values(kN);
  for (auto& v : values) v = rng.next() & 1;
  const auto packed = bitpack(values, 1);
  EXPECT_EQ(packed.size(), packed_word_count(kN, 1));
  std::vector<std::uint64_t> out(kN);
  bitunpack(packed, 1, kN, out);
  EXPECT_EQ(out, values);
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_EQ(bitpacked_at(packed, 1, i), values[i]);
}

TEST(BitPackDegenerateWidths, PackedViewDecodesWithReference) {
  // FOR view over an all-equal column: zero storage, exact decode.
  PackedView pv;
  pv.bits = 0;
  pv.reference = -1234;
  pv.count = 100;
  EXPECT_EQ(pv.byte_size(), 0u);
  for (std::size_t i = 0; i < pv.count; i += 13)
    EXPECT_EQ(pv.value_at(i), -1234);

  // Width-1 view with a negative reference (two-valued domain).
  const std::vector<std::uint64_t> deltas = {0, 1, 1, 0, 1};
  const auto packed = bitpack(deltas, 1);
  const PackedView two{packed, 1, -7, deltas.size()};
  for (std::size_t i = 0; i < deltas.size(); ++i)
    EXPECT_EQ(two.value_at(i), -7 + static_cast<std::int64_t>(deltas[i]));
}

TEST(BitPackDegenerateWidths, BitsForWidth) {
  EXPECT_EQ(bits_for_width(0), 0u);
  EXPECT_EQ(bits_for_width(1), 1u);
  EXPECT_EQ(bits_for_width(2), 2u);
  EXPECT_EQ(bits_for_width(255), 8u);
  EXPECT_EQ(bits_for_width(256), 9u);
  EXPECT_EQ(bits_for_width(~std::uint64_t{0}), 64u);
}

}  // namespace
}  // namespace eidb::storage
