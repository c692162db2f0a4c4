#include "storage/lz.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace eidb::storage {
namespace {

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

void expect_roundtrip(const std::vector<std::byte>& in) {
  const auto compressed = lz_compress(in);
  const auto back = lz_decompress(compressed, in.size());
  EXPECT_EQ(back, in);
}

TEST(Lz, EmptyInput) { expect_roundtrip({}); }

TEST(Lz, TinyInput) { expect_roundtrip(to_bytes("ab")); }

TEST(Lz, RepetitiveTextCompresses) {
  std::string s;
  for (int i = 0; i < 500; ++i) s += "the quick brown fox ";
  const auto in = to_bytes(s);
  const auto compressed = lz_compress(in);
  EXPECT_LT(compressed.size(), in.size() / 5);
  expect_roundtrip(in);
}

TEST(Lz, AllSameByte) {
  const std::vector<std::byte> in(100000, std::byte{0x41});
  const auto compressed = lz_compress(in);
  EXPECT_LT(compressed.size(), 1000u);  // overlapping match run-encodes
  expect_roundtrip(in);
}

TEST(Lz, IncompressibleRandomSurvives) {
  Pcg32 rng(9);
  std::vector<std::byte> in(10000);
  for (auto& b : in) b = static_cast<std::byte>(rng.next() & 0xff);
  const auto compressed = lz_compress(in);
  // Random bytes can repeat 4-grams by chance; just require bounded blowup
  // and an exact round trip.
  EXPECT_LT(compressed.size(), in.size() + in.size() / 8 + 64);
  expect_roundtrip(in);
}

TEST(Lz, OverlappingMatchNearBufferStart) {
  // "abcabcabc..." forces distance-3 matches with length > distance
  // (overlapping copy path).
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "abc";
  expect_roundtrip(to_bytes(s));
}

TEST(Lz, MixedCompressibleAndRandomSections) {
  Pcg32 rng(10);
  std::vector<std::byte> in;
  for (int section = 0; section < 10; ++section) {
    if (section % 2 == 0) {
      for (int i = 0; i < 5000; ++i)
        in.push_back(static_cast<std::byte>('a' + (i % 4)));
    } else {
      for (int i = 0; i < 5000; ++i)
        in.push_back(static_cast<std::byte>(rng.next() & 0xff));
    }
  }
  expect_roundtrip(in);
}

TEST(Lz, LongInputBeyondWindow) {
  // Matches can only reference the last 64 KiB; inputs larger than the
  // window must still round-trip.
  std::string s;
  for (int i = 0; i < 20000; ++i) s += "pattern" + std::to_string(i % 100);
  const auto in = to_bytes(s);
  EXPECT_GT(in.size(), std::size_t{1} << 17);
  expect_roundtrip(in);
}

TEST(Lz, SerializedIntColumnImage) {
  // The actual E2 use case: the byte image of an int64 column.
  Pcg32 rng(11);
  std::vector<std::int64_t> ints(20000);
  for (auto& v : ints) v = rng.next_bounded(500);  // low entropy per word
  std::vector<std::byte> in(ints.size() * 8);
  std::memcpy(in.data(), ints.data(), in.size());
  const auto compressed = lz_compress(in);
  EXPECT_LT(compressed.size(), in.size() / 2);  // zero-heavy high bytes
  expect_roundtrip(in);
}

}  // namespace
}  // namespace eidb::storage
