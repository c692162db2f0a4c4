// Parity of expression aggregates on the vectorized pipeline, where each
// expression is evaluated per selection word from its leaves' packed or
// plain views, against the row-at-a-time reference path, which
// materializes the whole expression column. Counts, MIN and MAX must match
// the oracle exactly; SUM and AVG within the tolerance block summation
// needs, infinities exactly and NaN as equal to NaN. Between the plain and
// packed vectorized runs (any pool width) every value must be
// bit-identical, and the packed run never charges more DRAM bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/expression.hpp"
#include "query/executor.hpp"
#include "query/sql.hpp"
#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using exec::Expr;
using exec::ExprOp;
using storage::Catalog;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TypeId;
using storage::Value;

// Not a multiple of 64, so every kernel also sees its partial tail word.
constexpr std::size_t kRows = 5'000;

/// facts(f filter, p32 / n32 / w64 auto-packed ints, d double, z int32
/// holding many zeros, g int32 key, tag string key).
Catalog make_catalog(std::uint64_t seed) {
  Catalog cat;
  Table& t = cat.add(Table("facts", Schema({{"f", TypeId::kInt32},
                                            {"p32", TypeId::kInt32},
                                            {"n32", TypeId::kInt32},
                                            {"w64", TypeId::kInt64},
                                            {"d", TypeId::kDouble},
                                            {"z", TypeId::kInt32},
                                            {"g", TypeId::kInt32},
                                            {"tag", TypeId::kString}})));
  Pcg32 rng(seed);
  std::vector<std::int32_t> f, p32, n32, z, g;
  std::vector<std::int64_t> w64;
  std::vector<double> d;
  std::vector<std::string> tag;
  const char* tags[] = {"ash", "birch", "cedar", "elm"};
  for (std::size_t i = 0; i < kRows; ++i) {
    f.push_back(static_cast<std::int32_t>(rng.next_bounded(1000)));
    p32.push_back(static_cast<std::int32_t>(rng.next_bounded(1000)));
    n32.push_back(static_cast<std::int32_t>(rng.next_in_range(-700, 300)));
    w64.push_back(rng.next_in_range(0, 3'000'000));
    d.push_back(rng.next_double() * 200.0 - 100.0);
    z.push_back(static_cast<std::int32_t>(rng.next_bounded(3)));
    g.push_back(static_cast<std::int32_t>(rng.next_bounded(10)));
    tag.emplace_back(tags[rng.next_bounded(4)]);
  }
  t.set_column(0, Column::from_int32("f", f));
  t.set_column(1, Column::from_int32("p32", p32));
  t.set_column(2, Column::from_int32("n32", n32));
  t.set_column(3, Column::from_int64("w64", w64));
  t.set_column(4, Column::from_double("d", d));
  t.set_column(5, Column::from_int32("z", z));
  t.set_column(6, Column::from_int32("g", g));
  t.set_column(7, Column::from_strings("tag", tag));
  return cat;
}

bool is_nan(const Value& v) {
  return v.is_double() && std::isnan(v.as_double());
}

/// Oracle comparison: exact for integers, MIN / MAX (order-free) and
/// non-finite doubles; relative 1e-9 for finite SUM / AVG.
void expect_matches_oracle(const QueryResult& want, const QueryResult& got,
                           const std::string& label) {
  ASSERT_EQ(want.column_names(), got.column_names()) << label;
  ASSERT_EQ(want.row_count(), got.row_count()) << label;
  for (std::size_t c = 0; c < want.column_count(); ++c) {
    const std::string& name = want.column_names()[c];
    const bool order_free = name.rfind("min(", 0) == 0 ||
                            name.rfind("max(", 0) == 0 ||
                            !(name.rfind("sum(", 0) == 0 ||
                              name.rfind("avg(", 0) == 0);
    for (std::size_t r = 0; r < want.row_count(); ++r) {
      const Value& w = want.at(r, c);
      const Value& g = got.at(r, c);
      const std::string at = label + " row " + std::to_string(r) + " " + name;
      if (is_nan(w) || is_nan(g)) {
        EXPECT_TRUE(is_nan(w) && is_nan(g)) << at;
      } else if (order_free || !w.is_double() ||
                 !std::isfinite(w.as_double())) {
        EXPECT_EQ(w, g) << at;
      } else {
        ASSERT_TRUE(g.is_double()) << at;
        EXPECT_NEAR(w.as_double(), g.as_double(),
                    1e-9 * (1.0 + std::abs(w.as_double())))
            << at;
      }
    }
  }
}

/// Bit-identical comparison (NaN equal to NaN).
void expect_identical(const QueryResult& want, const QueryResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.column_names(), got.column_names()) << label;
  ASSERT_EQ(want.row_count(), got.row_count()) << label;
  for (std::size_t r = 0; r < want.row_count(); ++r)
    for (std::size_t c = 0; c < want.column_count(); ++c) {
      const Value& w = want.at(r, c);
      const Value& g = got.at(r, c);
      if (is_nan(w) && is_nan(g)) continue;
      EXPECT_EQ(w, g) << label << " row " << r << " col " << c;
    }
}

using ExprPtr = std::shared_ptr<const Expr>;

ExprPtr col(const char* name) { return Expr::column(name); }
ExprPtr lit(double v) { return Expr::literal(v); }
ExprPtr bin(ExprOp op, ExprPtr l, ExprPtr r) {
  return Expr::binary(op, std::move(l), std::move(r));
}

/// Leaves of every kind the pipeline binds: packed int32 and int64, double,
/// and (in the plain runs and under composite keys) plain int32 / int64.
/// The last divides by a column that is zero in a third of the rows:
/// ±inf, and NaN where the dividend is zero too.
std::vector<ExprPtr> exprs() {
  return {
      bin(ExprOp::kSub, bin(ExprOp::kMul, col("p32"), col("w64")),
          col("n32")),
      bin(ExprOp::kDiv, bin(ExprOp::kAdd, col("d"), col("p32")), lit(100)),
      bin(ExprOp::kMul, col("n32"), bin(ExprOp::kSub, lit(1), col("d"))),
      bin(ExprOp::kDiv, col("n32"), col("z")),
  };
}

/// Selections: every word full, dense partial (~70%: block unpacks),
/// sparse partial (~5%: per-row packed access) and empty.
std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
selections() {
  return {{"full", {0, 999}},
          {"dense", {0, 699}},
          {"sparse", {0, 49}},
          {"empty", {2000, 3000}}};
}

/// Runs `plan` on the oracle, the plain vectorized path and the packed
/// vectorized path at pool widths serial / 2 / 8.
void check_plan(const Catalog& cat, const LogicalPlan& plan,
                const std::string& label) {
  Executor ex(cat);
  ExecOptions oracle_opts;
  oracle_opts.agg_path = AggPath::kRowAtATime;
  oracle_opts.use_encodings = false;
  ExecStats oracle_stats, plain_stats;
  const QueryResult oracle = ex.execute(plan, oracle_stats, oracle_opts);
  ExecOptions plain_opts;
  plain_opts.use_encodings = false;
  const QueryResult plain = ex.execute(plan, plain_stats, plain_opts);
  expect_matches_oracle(oracle, plain, label + " plain");

  sched::ThreadPool pool2(2), pool8(8);
  for (sched::ThreadPool* pool :
       std::vector<sched::ThreadPool*>{nullptr, &pool2, &pool8}) {
    ExecOptions packed_opts;
    packed_opts.pool = pool;
    packed_opts.parallel_agg_min_rows = 1;
    ExecStats packed_stats;
    const QueryResult packed = ex.execute(plan, packed_stats, packed_opts);
    const std::string arm =
        label + " packed pool " +
        std::to_string(pool == nullptr ? 0 : pool->thread_count());
    expect_matches_oracle(oracle, packed, arm);
    expect_identical(plain, packed, arm);
    EXPECT_LE(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes)
        << arm;
  }
}

LogicalPlan expr_plan(const ExprPtr& e,
                      const std::pair<std::int64_t, std::int64_t>& range,
                      const std::vector<std::string>& keys) {
  QueryBuilder b("facts");
  b.filter_int("f", range.first, range.second);
  for (const std::string& k : keys) b.group_by(k);
  b.aggregate(AggOp::kCount)
      .aggregate_expr(AggOp::kSum, e)
      .aggregate_expr(AggOp::kAvg, e)
      .aggregate_expr(AggOp::kMin, e)
      .aggregate_expr(AggOp::kMax, e)
      .aggregate(AggOp::kSum, "p32");  // a leaf shared with a direct input
  return b.build();
}

TEST(ExprAggParity, LeavesArePacked) {
  // The packed runs below only exercise packed leaves if the auto
  // encoding packs them.
  const Catalog cat = make_catalog(31);
  for (const char* name : {"p32", "n32", "w64"})
    EXPECT_NE(cat.get("facts").column(name).encoded(), nullptr) << name;
}

TEST(ExprAggParity, GlobalMatchesOracle) {
  const Catalog cat = make_catalog(31);
  const auto es = exprs();
  for (const auto& [sel, range] : selections())
    for (std::size_t x = 0; x < es.size(); ++x)
      check_plan(cat, expr_plan(es[x], range, {}),
                 "global " + sel + " expr " + std::to_string(x));
}

TEST(ExprAggParity, GroupedMatchesOracle) {
  const Catalog cat = make_catalog(32);
  const auto es = exprs();
  // Packed int key, string-code key, and a composite key (whose columns
  // every consumer reads plain).
  const std::vector<std::vector<std::string>> key_sets = {
      {"g"}, {"tag"}, {"g", "tag"}};
  for (const auto& keys : key_sets)
    for (const auto& [sel, range] : selections())
      for (std::size_t x = 0; x < es.size(); ++x)
        check_plan(cat, expr_plan(es[x], range, keys),
                   "group " + keys.front() + std::to_string(keys.size()) +
                       " " + sel + " expr " + std::to_string(x));
}

TEST(ExprAggParity, NanRowsLeaveMinMaxToTheOtherRows) {
  // MIN / MAX skip NaN rows on the oracle. A full word whose first row is
  // NaN (0 / 0 here, or a NaN in a double column) must not lose the rest
  // of the word's extremes: word 0 holds the unique min and max.
  Catalog cat;
  Table& t = cat.add(Table("t", Schema({{"x", TypeId::kInt32},
                                        {"y", TypeId::kInt32},
                                        {"d", TypeId::kDouble}})));
  std::vector<std::int32_t> x, y;
  std::vector<double> d;
  for (std::int32_t i = 0; i < 128; ++i) {
    x.push_back(i == 0 ? 0 : i == 5 ? -100 : i == 6 ? 1000 : i);
    y.push_back(i == 0 ? 0 : 1);
    d.push_back(i == 0 ? std::nan("") : static_cast<double>(x.back()));
  }
  t.set_column(0, Column::from_int32("x", x));
  t.set_column(1, Column::from_int32("y", y));
  t.set_column(2, Column::from_double("d", d));
  const auto e = bin(ExprOp::kDiv, col("x"), col("y"));
  check_plan(cat,
             QueryBuilder("t")
                 .aggregate_expr(AggOp::kMin, e)
                 .aggregate_expr(AggOp::kMax, e)
                 .aggregate_expr(AggOp::kSum, e)
                 .aggregate(AggOp::kMin, "d")
                 .aggregate(AggOp::kMax, "d")
                 .build(),
             "nan-first-lane");
  Executor ex(cat);
  ExecStats stats;
  const QueryResult r = ex.execute(
      QueryBuilder("t").aggregate_expr(AggOp::kMin, e).build(), stats);
  EXPECT_EQ(r.at(0, 0).as_double(), -100.0);
}

TEST(ExprAggParity, Q1ShapedQueryChargesPackedLeaves) {
  // W1's Q1: SUM(revenue * discount / 100) under a two-predicate filter.
  // The leaves stream their packed images, charged once each by the
  // aggregate operator, so the query never bills more than the plain run.
  Catalog cat;
  Table& lo = cat.add(
      Table("lineorder", Schema({{"quantity", TypeId::kInt64},
                                 {"discount", TypeId::kInt64},
                                 {"revenue", TypeId::kInt64}})));
  Pcg32 rng(11);
  std::vector<std::int64_t> quantity, discount, revenue;
  for (std::size_t i = 0; i < 40'000; ++i) {
    quantity.push_back(1 + rng.next_bounded(50));
    discount.push_back(rng.next_bounded(11));
    revenue.push_back(1000 + rng.next_bounded(100'000));
  }
  lo.set_column(0, Column::from_int64("quantity", quantity));
  lo.set_column(1, Column::from_int64("discount", discount));
  lo.set_column(2, Column::from_int64("revenue", revenue));
  ASSERT_NE(lo.column("discount").encoded(), nullptr);
  ASSERT_NE(lo.column("revenue").encoded(), nullptr);

  const LogicalPlan plan = parse_sql(
      "SELECT SUM(revenue * discount / 100), COUNT(*) FROM lineorder "
      "WHERE discount BETWEEN 1 AND 3 AND quantity < 25");
  check_plan(cat, plan, "q1");

  Executor ex(cat);
  ExecOptions plain_opts;
  plain_opts.use_encodings = false;
  ExecStats plain_stats, packed_stats;
  (void)ex.execute(plan, plain_stats, plain_opts);
  (void)ex.execute(plan, packed_stats);
  EXPECT_LT(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes);
  const auto agg_bytes = [](const ExecStats& s) {
    for (const OperatorStats& op : s.operators)
      if (op.name == "aggregate") return op.work.dram_bytes;
    ADD_FAILURE() << "no aggregate operator";
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(
      agg_bytes(packed_stats),
      static_cast<double>(lo.column("revenue").scan_byte_size() +
                          lo.column("discount").scan_byte_size()));
  EXPECT_DOUBLE_EQ(agg_bytes(plain_stats),
                   static_cast<double>(lo.column("revenue").byte_size() +
                                       lo.column("discount").byte_size()));
}

}  // namespace
}  // namespace eidb::query
