// The scalar oracle the query parity suites check the engine against.
//
// Every answer is computed the slow, obvious way:
//   * a row is selected when each Predicate's [lo, hi] contains the
//     Column::value_at of that row, compared by value;
//   * joins are nested loops, one declared join at a time, with keys
//     compared in the value domain (never dictionary codes);
//   * GROUP BY collects per-row key Values into an ordered std::map, and
//     COUNT / SUM / MIN / MAX / AVG fold per-row Values in row order;
//   * expression inputs are evaluated per row by walking the exec::Expr
//     tree through its public accessors.
// The oracle includes only the data model (storage tables, columns and
// values, query::LogicalPlan, exec::Expr). It calls no kernel, operator,
// planner or exec::evaluate_expression, so a bug in any of those cannot
// make the engine and its reference agree on a wrong answer.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/expression.hpp"
#include "query/plan.hpp"
#include "query/result.hpp"
#include "storage/table.hpp"
#include "storage/types.hpp"
#include "util/assert.hpp"

namespace eidb::query::oracle {

using storage::Value;

/// Inclusive range test by value: strings lexicographically, integers as
/// integers, everything else as doubles (NaN lies in no range).
inline bool in_range(const Value& v, const Value& lo, const Value& hi) {
  if (v.is_string())
    return lo.as_string() <= v.as_string() && v.as_string() <= hi.as_string();
  if (v.is_int() && lo.is_int() && hi.is_int())
    return lo.as_int() <= v.as_int() && v.as_int() <= hi.as_int();
  const double x = v.as_double();
  return lo.as_double() <= x && x <= hi.as_double();
}

/// Value order within one column (the order GROUP BY emits groups in).
inline bool value_less(const Value& a, const Value& b) {
  if (a.is_string()) return a.as_string() < b.as_string();
  if (a.is_int() && b.is_int()) return a.as_int() < b.as_int();
  return a.as_double() < b.as_double();
}

struct KeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end(), value_less);
  }
};

/// `e` evaluated on row `row` of `table`, in doubles.
inline double eval(const exec::Expr& e, const storage::Table& table,
                   std::size_t row) {
  switch (e.kind()) {
    case exec::ExprKind::kColumn:
      return table.column(e.column_name()).value_at(row).as_double();
    case exec::ExprKind::kLiteral:
      return e.literal_value();
    case exec::ExprKind::kBinary: {
      const double l = eval(e.lhs(), table, row);
      const double r = eval(e.rhs(), table, row);
      switch (e.op()) {
        case exec::ExprOp::kAdd:
          return l + r;
        case exec::ExprOp::kSub:
          return l - r;
        case exec::ExprOp::kMul:
          return l * r;
        case exec::ExprOp::kDiv:
          return l / r;
      }
    }
  }
  throw Error("oracle: invalid expression");
}

/// One aggregate's running state over a group's rows. MIN / MAX skip NaN
/// rows; aggregates of no rows read 0 (AVG 0.0, SUM 0 of the input type).
struct Acc {
  bool is_double = false;
  std::uint64_t count = 0;
  std::int64_t isum = 0;
  std::int64_t imin = std::numeric_limits<std::int64_t>::max();
  std::int64_t imax = std::numeric_limits<std::int64_t>::min();
  double dsum = 0;
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();

  void add(const Value& v) {
    ++count;
    if (is_double) {
      const double x = v.as_double();
      dsum += x;
      if (!std::isnan(x)) {
        dmin = std::min(dmin, x);
        dmax = std::max(dmax, x);
      }
    } else {
      const std::int64_t x = v.as_int();
      isum += x;
      imin = std::min(imin, x);
      imax = std::max(imax, x);
    }
  }

  [[nodiscard]] Value value(AggOp op) const {
    switch (op) {
      case AggOp::kCount:
        return Value{static_cast<std::int64_t>(count)};
      case AggOp::kSum:
        return is_double ? Value{dsum} : Value{isum};
      case AggOp::kMin:
        if (count == 0) return Value{std::int64_t{0}};
        return is_double ? Value{dmin} : Value{imin};
      case AggOp::kMax:
        if (count == 0) return Value{std::int64_t{0}};
        return is_double ? Value{dmax} : Value{imax};
      case AggOp::kAvg: {
        if (count == 0) return Value{0.0};
        const double sum = is_double ? dsum : static_cast<double>(isum);
        return Value{sum / static_cast<double>(count)};
      }
    }
    throw Error("oracle: invalid aggregate");
  }
};

/// Answers an aggregate plan: one row per group in key order (one row for
/// a global aggregate, even over no rows), group-key columns first. ORDER
/// BY and LIMIT are left to expect_matches, which knows how ties may fall.
inline QueryResult run(const storage::Catalog& cat, const LogicalPlan& plan) {
  EIDB_EXPECTS(plan.is_aggregate());
  // Side 0 is the FROM table, side j+1 join j's table.
  std::vector<const storage::Table*> sides{&cat.get(plan.table)};
  for (const JoinSpec& j : plan.joins) sides.push_back(&cat.get(j.table));

  // Bare names bind to the FROM table first, then the joined tables in
  // declaration order; "table.column" names its side.
  struct Ref {
    std::size_t side;
    const storage::Column* col;
  };
  const auto resolve = [&](const std::string& name) -> Ref {
    const auto dot = name.find('.');
    for (std::size_t s = 0; s < sides.size(); ++s) {
      if (dot == std::string::npos) {
        if (sides[s]->schema().has_column(name))
          return {s, &sides[s]->column(name)};
      } else if (sides[s]->name() == name.substr(0, dot)) {
        return {s, &sides[s]->column(name.substr(dot + 1))};
      }
    }
    throw Error("oracle: unknown column " + name);
  };
  const auto selected = [](const storage::Table& t,
                           const std::vector<Predicate>& preds) {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < t.row_count(); ++i) {
      bool keep = true;
      for (const Predicate& p : preds)
        keep = keep && in_range(t.column(p.column).value_at(i), p.lo, p.hi);
      if (keep) rows.push_back(i);
    }
    return rows;
  };

  // Match tuples: one row id per side.
  std::vector<std::vector<std::size_t>> tuples;
  for (const std::size_t i : selected(*sides[0], plan.predicates))
    tuples.push_back({i});
  for (std::size_t j = 0; j < plan.joins.size(); ++j) {
    const JoinSpec& spec = plan.joins[j];
    const Ref left = resolve(spec.left_key);
    const storage::Column& right = sides[j + 1]->column(spec.right_key);
    std::vector<std::pair<std::size_t, Value>> build;
    for (const std::size_t b : selected(*sides[j + 1], spec.predicates))
      build.emplace_back(b, right.value_at(b));
    std::vector<std::vector<std::size_t>> next;
    for (const auto& tuple : tuples) {
      const Value key = left.col->value_at(tuple[left.side]);
      for (const auto& [b, value] : build) {
        if (!(value == key)) continue;
        next.push_back(tuple);
        next.back().push_back(b);
      }
    }
    tuples = std::move(next);
  }

  std::vector<Ref> keys;
  for (const std::string& name : plan.group_by) keys.push_back(resolve(name));
  std::vector<Ref> inputs;  // col == nullptr: COUNT(*) or an expression
  std::vector<Acc> fresh(plan.aggregates.size());
  for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
    const AggSpec& spec = plan.aggregates[a];
    if (spec.op == AggOp::kCount || spec.expr != nullptr) {
      inputs.push_back({0, nullptr});
      fresh[a].is_double = spec.expr != nullptr;
    } else {
      inputs.push_back(resolve(spec.column));
      fresh[a].is_double =
          inputs.back().col->type() == storage::TypeId::kDouble;
    }
  }

  std::map<std::vector<Value>, std::vector<Acc>, KeyLess> groups;
  if (plan.group_by.empty()) groups.emplace(std::vector<Value>{}, fresh);
  for (const auto& tuple : tuples) {
    std::vector<Value> key;
    for (const Ref& k : keys) key.push_back(k.col->value_at(tuple[k.side]));
    std::vector<Acc>& accs = groups.try_emplace(std::move(key), fresh)
                                 .first->second;
    for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
      const AggSpec& spec = plan.aggregates[a];
      if (spec.expr != nullptr)
        accs[a].add(Value{eval(*spec.expr, *sides[0], tuple[0])});
      else if (inputs[a].col != nullptr)
        accs[a].add(inputs[a].col->value_at(tuple[inputs[a].side]));
      else
        ++accs[a].count;
    }
  }

  std::vector<std::string> names(plan.group_by);
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  QueryResult result(std::move(names));
  for (const auto& [key, accs] : groups) {
    std::vector<Value> row = key;
    for (std::size_t a = 0; a < plan.aggregates.size(); ++a)
      row.push_back(accs[a].value(plan.aggregates[a].op));
    result.add_row(std::move(row));
  }
  return result;
}

inline bool is_nan(const Value& v) {
  return v.is_double() && std::isnan(v.as_double());
}

/// Checks the engine's `got` against the oracle's `want` for `plan`.
/// Without ORDER BY the rows compare positionally (the first LIMIT of
/// them). With it, `got` must be sorted on the ORDER BY column and hold
/// min(LIMIT, groups) rows, each equal to the oracle row with its group
/// key: rows tied on the sort key may come in any order. Cells compare
/// exactly, NaN equal to NaN, except finite double SUM / AVG values,
/// which may differ by `rel_tol` relative: the engine sums in blocks and
/// chunks, the oracle row by row.
inline void expect_matches(const QueryResult& want, const QueryResult& got,
                           const LogicalPlan& plan, const std::string& label,
                           double rel_tol = 0) {
  ASSERT_EQ(want.column_names(), got.column_names()) << label;
  const std::size_t want_rows = plan.limit != 0
                                    ? std::min(plan.limit, want.row_count())
                                    : want.row_count();
  ASSERT_EQ(got.row_count(), want_rows) << label;
  const std::size_t n_keys = plan.group_by.size();

  std::map<std::vector<Value>, std::size_t, KeyLess> by_key;
  if (plan.order_by.has_value()) {
    for (std::size_t r = 0; r < want.row_count(); ++r)
      by_key.emplace(std::vector<Value>(want.row(r).begin(),
                                        want.row(r).begin() + n_keys),
                     r);
    const std::size_t oc = got.column_index(plan.order_by->column);
    for (std::size_t r = 0; r + 1 < got.row_count(); ++r) {
      const Value& a = got.at(r, oc);
      const Value& b = got.at(r + 1, oc);
      EXPECT_FALSE(plan.order_by->ascending ? value_less(b, a)
                                            : value_less(a, b))
          << label << " unsorted at row " << r;
    }
  }

  for (std::size_t r = 0; r < got.row_count(); ++r) {
    std::size_t w = r;
    if (plan.order_by.has_value()) {
      const auto it = by_key.find(std::vector<Value>(
          got.row(r).begin(), got.row(r).begin() + n_keys));
      ASSERT_TRUE(it != by_key.end()) << label << " row " << r << " no group";
      w = it->second;
    }
    for (std::size_t c = 0; c < want.column_count(); ++c) {
      const Value& x = want.at(w, c);
      const Value& y = got.at(r, c);
      const std::string at = label + " row " + std::to_string(r) + " " +
                             want.column_names()[c];
      const bool summed =
          c >= n_keys && (plan.aggregates[c - n_keys].op == AggOp::kSum ||
                          plan.aggregates[c - n_keys].op == AggOp::kAvg);
      if (is_nan(x) || is_nan(y)) {
        EXPECT_TRUE(is_nan(x) && is_nan(y)) << at;
      } else if (rel_tol > 0 && summed && x.is_double() &&
                 std::isfinite(x.as_double())) {
        ASSERT_TRUE(y.is_double()) << at;
        EXPECT_NEAR(x.as_double(), y.as_double(),
                    rel_tol * (1.0 + std::abs(x.as_double())))
            << at;
      } else {
        EXPECT_EQ(x, y) << at;
      }
    }
  }
}

}  // namespace eidb::query::oracle
