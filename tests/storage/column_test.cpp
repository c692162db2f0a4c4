#include "storage/column.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "storage/table.hpp"
#include "util/rng.hpp"

namespace eidb::storage {
namespace {

TEST(Column, AppendInt64) {
  Column c("x", TypeId::kInt64);
  for (std::int64_t i = 0; i < 1000; ++i) c.append_int64(i * 7);
  ASSERT_EQ(c.size(), 1000u);
  const auto data = c.int64_data();
  for (std::int64_t i = 0; i < 1000; ++i) EXPECT_EQ(data[i], i * 7);
  EXPECT_EQ(c.byte_size(), 8000u);
}

TEST(Column, BulkFromSpans) {
  const std::vector<std::int32_t> v32 = {1, 2, 3};
  const std::vector<std::int64_t> v64 = {4, 5};
  const std::vector<double> vd = {1.5};
  const Column a = Column::from_int32("a", v32);
  const Column b = Column::from_int64("b", v64);
  const Column c = Column::from_double("c", vd);
  EXPECT_EQ(a.int32_data()[2], 3);
  EXPECT_EQ(b.int64_data()[1], 5);
  EXPECT_DOUBLE_EQ(c.double_data()[0], 1.5);
}

TEST(Column, BulkFromEmptySpans) {
  // Empty spans carry a null data(); the bulk loads must not hand it to
  // memcpy (undefined behaviour, caught by UBSan).
  const Column a = Column::from_int32("a", std::span<const std::int32_t>());
  const Column b = Column::from_int64("b", std::span<const std::int64_t>());
  const Column c = Column::from_double("c", std::span<const double>());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(a.type(), TypeId::kInt32);
  EXPECT_EQ(b.type(), TypeId::kInt64);
  EXPECT_EQ(c.type(), TypeId::kDouble);
}

TEST(Column, StringColumnEncodesOrderedCodes) {
  const Column c = Column::from_strings("s", {"cherry", "apple", "banana",
                                              "apple"});
  ASSERT_EQ(c.size(), 4u);
  ASSERT_TRUE(c.has_dictionary());
  const auto codes = c.codes();
  EXPECT_EQ(codes[0], 2);  // cherry
  EXPECT_EQ(codes[1], 0);  // apple
  EXPECT_EQ(codes[2], 1);  // banana
  EXPECT_EQ(codes[3], 0);  // apple
  EXPECT_EQ(c.dictionary().size(), 3);
}

TEST(Column, ValueAtDecodes) {
  const Column s = Column::from_strings("s", {"b", "a"});
  EXPECT_EQ(s.value_at(0).as_string(), "b");
  const std::vector<double> vd = {2.25};
  const Column d = Column::from_double("d", vd);
  EXPECT_DOUBLE_EQ(d.value_at(0).as_double(), 2.25);
  const std::vector<std::int32_t> vi = {-3};
  const Column i = Column::from_int32("i", vi);
  EXPECT_EQ(i.value_at(0).as_int(), -3);
}

TEST(Column, MutableAccessWritesThrough) {
  const std::vector<std::int64_t> v = {1, 2, 3};
  Column c = Column::from_int64("x", v);
  c.mutable_int64()[1] = 99;
  EXPECT_EQ(c.int64_data()[1], 99);
}

TEST(Column, ReserveDoesNotChangeSize) {
  Column c("x", TypeId::kInt32);
  c.reserve(1000);
  EXPECT_EQ(c.size(), 0u);
  c.append_int32(5);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Column, GrowthAcrossManyAppends) {
  Column c("x", TypeId::kDouble);
  for (int i = 0; i < 100000; ++i) c.append_double(i * 0.5);
  EXPECT_EQ(c.size(), 100000u);
  EXPECT_DOUBLE_EQ(c.double_data()[99999], 99999 * 0.5);
}

TEST(Column, EmptyStringColumn) {
  const Column c = Column::from_strings("s", {});
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.has_dictionary());
  EXPECT_EQ(c.dictionary().size(), 0);
}

TEST(ColumnStats, IntColumnMinMaxDistinct) {
  std::vector<std::int32_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 10 - 3);  // values -3..6
  const Column c = Column::from_int32("x", v);
  const ColumnStats& s = c.stats();
  EXPECT_EQ(s.rows, 1000u);
  EXPECT_EQ(s.min, -3);
  EXPECT_EQ(s.max, 6);
  EXPECT_EQ(s.domain(), 10);
  EXPECT_EQ(s.distinct, 10u);  // small column: exact
}

TEST(ColumnStats, StringColumnUsesDictionaryDistinct) {
  const Column c = Column::from_strings(
      "s", {"eu", "us", "eu", "asia", "eu", "us"});
  const ColumnStats& s = c.stats();
  EXPECT_EQ(s.distinct, 3u);
  EXPECT_EQ(s.min, 0);  // code range
  EXPECT_EQ(s.max, 2);
}

TEST(ColumnStats, DoubleColumnRangeAndSelectivity) {
  const std::vector<double> v = {-1.5, 0.0, 2.5, 4.0};
  const Column c = Column::from_double("d", v);
  const ColumnStats& s = c.stats();
  EXPECT_DOUBLE_EQ(s.dmin, -1.5);
  EXPECT_DOUBLE_EQ(s.dmax, 4.0);
  EXPECT_DOUBLE_EQ(s.range_selectivity(-1.5, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(s.range_selectivity(10.0, 20.0), 0.0);
  EXPECT_NEAR(s.range_selectivity(-1.5, 1.25), 0.5, 1e-12);
}

TEST(ColumnStats, EmptyColumn) {
  const Column c("x", TypeId::kInt64);
  const ColumnStats& s = c.stats();
  EXPECT_EQ(s.rows, 0u);
  EXPECT_EQ(s.domain(), 0);
  EXPECT_DOUBLE_EQ(s.range_selectivity(std::int64_t{0}, std::int64_t{10}),
                   0.0);
}

TEST(ColumnStats, MutableAccessInvalidates) {
  const std::vector<std::int64_t> v = {1, 2, 3};
  Column c = Column::from_int64("x", v);
  EXPECT_EQ(c.stats().max, 3);
  c.mutable_int64()[1] = 99;
  EXPECT_EQ(c.stats().max, 99);
}

// -- Encoding choice and packed segments -------------------------------------

TEST(ColumnEncoding, AutoChoiceFromStats) {
  // Non-negative narrow domain: reference-free bit packing.
  unsigned bits = 0;
  ColumnStats s;
  s.rows = 100;
  s.min = 0;
  s.max = 999;
  EXPECT_EQ(choose_encoding(s, TypeId::kInt32, &bits),
            Encoding::kBitPacked);
  EXPECT_EQ(bits, 10u);
  // Offset domain: FOR shrinks the width, so it wins.
  s.min = 1'000'000;
  s.max = 1'000'999;
  EXPECT_EQ(choose_encoding(s, TypeId::kInt32, &bits),
            Encoding::kForBitPacked);
  EXPECT_EQ(bits, 10u);
  // Negative domain: only FOR applies.
  s.min = -500;
  s.max = 500;
  EXPECT_EQ(choose_encoding(s, TypeId::kInt32, &bits),
            Encoding::kForBitPacked);
  EXPECT_EQ(bits, 10u);
  // Full-width domain: nothing to save.
  s.min = std::numeric_limits<std::int32_t>::min();
  s.max = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(choose_encoding(s, TypeId::kInt32), Encoding::kPlain);
  // Doubles are never encoded.
  EXPECT_EQ(choose_encoding(s, TypeId::kDouble), Encoding::kPlain);
}

TEST(ColumnEncoding, AllEqualColumnPacksToZeroBits) {
  // domain() == 1 must yield a width-0 FOR image, not a bogus width.
  const std::vector<std::int64_t> v(200, -12345);
  Column c = Column::from_int64("k", v);
  EXPECT_EQ(c.stats().domain(), 1);
  EXPECT_EQ(c.choose_encoding(), Encoding::kForBitPacked);
  c.auto_encode();
  ASSERT_NE(c.encoded(), nullptr);
  EXPECT_EQ(c.encoded()->bits, 0u);
  EXPECT_EQ(c.encoded()->reference, -12345);
  EXPECT_EQ(c.scan_byte_size(), 0u);
  for (std::size_t i = 0; i < v.size(); i += 17)
    EXPECT_EQ(c.packed_view().value_at(i), -12345);
  // All-zero column: the reference-free layout also reaches width 0.
  const std::vector<std::int64_t> z(64, 0);
  Column cz = Column::from_int64("z", z);
  EXPECT_EQ(cz.choose_encoding(), Encoding::kBitPacked);
}

TEST(ColumnEncoding, TinyColumnNeverGetsLargerPackedImage) {
  // 3 rows at a 31-bit width: per-value bits beat the 32-bit plain width,
  // but word rounding makes the image (2 words = 16 B) larger than the
  // plain array (12 B) — the chooser must keep it plain so the ledger's
  // dram(packed) <= dram(plain) invariant holds unconditionally.
  const std::vector<std::int32_t> v = {0, 5, 1 << 30};
  Column c = Column::from_int32("tiny", v);
  EXPECT_EQ(c.choose_encoding(), Encoding::kPlain);
  c.auto_encode();
  EXPECT_LE(c.scan_byte_size(), c.byte_size());
}

TEST(ColumnEncoding, EmptyColumnStaysPlainButAcceptsOverride) {
  Column c = Column::from_int64("e", {});
  EXPECT_EQ(c.stats().domain(), 0);
  EXPECT_EQ(c.choose_encoding(), Encoding::kPlain);
  c.auto_encode();
  EXPECT_EQ(c.encoding(), Encoding::kPlain);
  // Forced encodings on an empty column are well-defined (0-bit image).
  c.set_encoding(Encoding::kForBitPacked);
  ASSERT_NE(c.encoded(), nullptr);
  EXPECT_EQ(c.encoded()->bits, 0u);
  EXPECT_EQ(c.encoded()->count, 0u);
}

TEST(ColumnEncoding, SegmentRoundTripsAndInvalidates) {
  Pcg32 rng(8);
  std::vector<std::int32_t> v;
  for (int i = 0; i < 500; ++i)
    v.push_back(static_cast<std::int32_t>(rng.next_in_range(-300, 900)));
  Column c = Column::from_int32("x", v);
  c.auto_encode();
  ASSERT_NE(c.encoded(), nullptr);
  EXPECT_EQ(c.encoding(), Encoding::kForBitPacked);
  EXPECT_LT(c.scan_byte_size(), c.byte_size());
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_EQ(c.packed_view().value_at(i), v[i]) << i;
  // Mutation drops the stale image; auto_encode rebuilds from fresh stats.
  c.append_int32(5000);
  EXPECT_EQ(c.encoded(), nullptr);
  c.auto_encode();
  ASSERT_NE(c.encoded(), nullptr);
  EXPECT_EQ(c.packed_view().value_at(500), 5000);
}

TEST(ColumnEncoding, TableSetColumnAutoEncodes) {
  Table t("t", Schema({{"narrow", TypeId::kInt32},
                       {"wide", TypeId::kInt64},
                       {"d", TypeId::kDouble}}));
  std::vector<std::int32_t> narrow(100);
  std::vector<std::int64_t> wide(100);
  std::vector<double> d(100);
  Pcg32 rng(9);
  for (std::size_t i = 0; i < 100; ++i) {
    narrow[i] = static_cast<std::int32_t>(rng.next_bounded(50));
    wide[i] = static_cast<std::int64_t>(rng.next64());  // full 64-bit spread
    d[i] = rng.next_double();
  }
  t.set_column(0, Column::from_int32("narrow", narrow));
  t.set_column(1, Column::from_int64("wide", wide));
  t.set_column(2, Column::from_double("d", d));
  EXPECT_NE(t.column("narrow").encoded(), nullptr);
  EXPECT_EQ(t.column("wide").encoding(), Encoding::kPlain);
  EXPECT_EQ(t.column("d").encoding(), Encoding::kPlain);
  // recode() overrides the automatic choice in place.
  t.recode("narrow", Encoding::kPlain);
  EXPECT_EQ(t.column("narrow").encoding(), Encoding::kPlain);
  t.recode("narrow", Encoding::kBitPacked);
  EXPECT_EQ(t.column("narrow").encoding(), Encoding::kBitPacked);
}

TEST(ColumnEncoding, StringColumnPacksDictionaryCodes) {
  const std::vector<std::string> v = {"b", "a", "c", "a", "b", "c", "a"};
  Table t("t", Schema({{"s", TypeId::kString}}));
  t.set_column(0, Column::from_strings("s", v));
  const Column& c = t.column("s");
  ASSERT_NE(c.encoded(), nullptr);
  EXPECT_EQ(c.encoded()->bits, 2u);  // 3 codes -> 2 bits
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(c.packed_view().value_at(i), c.codes()[i]);
}

}  // namespace
}  // namespace eidb::storage
