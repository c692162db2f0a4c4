// Differential (oracle) testing: random plans run through the vectorized
// executor AND the scalar oracle (scalar_oracle.hpp); results must match
// row by row. This is the strongest correctness net over the whole query
// path (predicates, dictionary binding, grouping, aggregation, ordering,
// limits).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "query/executor.hpp"
#include "scalar_oracle.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using storage::Catalog;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TypeId;

Catalog make_catalog(std::uint64_t seed, std::size_t rows) {
  Pcg32 rng(seed);
  const char* tags[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  std::vector<std::int64_t> k, v;
  std::vector<double> d;
  std::vector<std::string> s;
  for (std::size_t i = 0; i < rows; ++i) {
    k.push_back(rng.next_in_range(-50, 50));
    v.push_back(rng.next_in_range(-1000, 1000));
    d.push_back(rng.next_double() * 10 - 5);
    s.emplace_back(tags[rng.next_bounded(5)]);
  }
  Catalog cat;
  Table& t = cat.add(Table("t", Schema({{"k", TypeId::kInt64},
                                        {"v", TypeId::kInt64},
                                        {"d", TypeId::kDouble},
                                        {"s", TypeId::kString}})));
  t.set_column(0, Column::from_int64("k", k));
  t.set_column(1, Column::from_int64("v", v));
  t.set_column(2, Column::from_double("d", d));
  t.set_column(3, Column::from_strings("s", s));
  return cat;
}

LogicalPlan random_plan(Pcg32& rng) {
  QueryBuilder qb("t");
  // 0-2 predicates.
  const int preds = static_cast<int>(rng.next_bounded(3));
  for (int p = 0; p < preds; ++p) {
    switch (rng.next_bounded(3)) {
      case 0: {
        const std::int64_t a = rng.next_in_range(-60, 60);
        const std::int64_t b = rng.next_in_range(-60, 60);
        qb.filter_int("k", std::min(a, b), std::max(a, b));
        break;
      }
      case 1: {
        const double a = rng.next_double() * 12 - 6;
        const double b = rng.next_double() * 12 - 6;
        qb.filter_double("d", std::min(a, b), std::max(a, b));
        break;
      }
      default: {
        const char* bounds[] = {"a", "b", "c", "d", "e", "f", "g"};
        const auto lo = rng.next_bounded(6);
        const auto hi = lo + rng.next_bounded(static_cast<std::uint32_t>(7 - lo));
        qb.filter_string("s", bounds[lo], bounds[hi]);
        break;
      }
    }
  }
  // Grouping: none / s / (s, k).
  const auto g = rng.next_bounded(3);
  if (g >= 1) qb.group_by("s");
  if (g == 2) qb.group_by("k");
  // 1-3 aggregates.
  const int aggs = 1 + static_cast<int>(rng.next_bounded(3));
  for (int a = 0; a < aggs; ++a) {
    const AggOp op = static_cast<AggOp>(rng.next_bounded(5));
    if (op == AggOp::kCount)
      qb.aggregate(AggOp::kCount);
    else
      qb.aggregate(op, rng.next_bounded(2) ? "v" : "d");
  }
  return qb.build();
}

TEST(Differential, RandomAggregatePlansMatchScalarOracle) {
  const Catalog cat = make_catalog(99, 3000);
  Executor executor(cat);
  Pcg32 rng(123);

  int nontrivial = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const LogicalPlan plan = random_plan(rng);
    ExecStats stats;
    const QueryResult got = executor.execute(plan, stats);
    const QueryResult want = oracle::run(cat, plan);
    if (want.row_count() > 1) ++nontrivial;
    // 5e-10 * (1 + |w|) never exceeds max(1e-9, 1e-9 * |w|).
    oracle::expect_matches(want, got, plan,
                           "trial " + std::to_string(trial) + ": " +
                               plan.to_string(),
                           5e-10);
  }
  EXPECT_GT(nontrivial, 20);  // the generator actually exercises grouping
}

// The engine's group ordering (composite key ascending) must agree with the
// oracle's map ordering used above for (s) and (s, k) groupings — this test
// pins that contract so the differential comparison is row-by-row.
TEST(Differential, GroupOrderingContract) {
  const Catalog cat = make_catalog(7, 500);
  Executor executor(cat);
  ExecStats stats;
  const auto plan = QueryBuilder("t")
                        .group_by("s")
                        .group_by("k")
                        .aggregate(AggOp::kCount)
                        .build();
  const QueryResult r = executor.execute(plan, stats);
  for (std::size_t g = 1; g < r.row_count(); ++g) {
    const auto& prev_s = r.at(g - 1, 0).as_string();
    const auto& cur_s = r.at(g, 0).as_string();
    EXPECT_LE(prev_s, cur_s);
    if (prev_s == cur_s) {
      EXPECT_LT(r.at(g - 1, 1).as_int(), r.at(g, 1).as_int());
    }
  }
}

}  // namespace
}  // namespace eidb::query
