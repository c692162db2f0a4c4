// Independent reference answers.
//
// Each statement the benchmark sends carries its expected result, computed
// up front with plain loops over the generated columns (data.hpp). No
// engine code is involved in computing it — no parser, plan, kernel or
// encoding — so an engine bug cannot hide by being shared with the oracle.
// Every returned result is compared; a mismatch counts as a failed query.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "data.hpp"

namespace eidb::query {
class QueryResult;
}  // namespace eidb::query

namespace perfbench {

using Cell = std::variant<std::int64_t, double, std::string>;
using Row = std::vector<Cell>;

struct Expected {
  std::vector<Row> rows;
  /// False for GROUP BY without ORDER BY: rows compare as a multiset.
  bool ordered = true;
};

struct Statement {
  std::string id;   ///< Query class, e.g. "Q3" or "short-customer".
  std::string sql;
  Expected expected;
};

/// W1's Q1–Q8 over `data`, in order, each with its expected answer.
[[nodiscard]] std::vector<Statement> star_queries(const StarData& data);

/// Precomputed plain-loop tables that answer the parameterised short
/// statements in O(1) each.
class ShortLookups {
 public:
  explicit ShortLookups(const StarData& data);
  /// A star-mixed short query: a customer or dates range COUNT with
  /// random bounds drawn from `rng`.
  [[nodiscard]] Statement next(Rng& rng) const;

 private:
  const StarData& data_;
  /// seg_prefix_[s][i] = customers with segment s among custkeys [0, i).
  std::vector<std::vector<std::int64_t>> seg_prefix_;
};

class BurstQueries {
 public:
  explicit BurstQueries(const EventsData& data);
  /// A scan-burst request: COUNT(*) or SUM(v) over a random k range.
  [[nodiscard]] Statement next(Rng& rng) const;

 private:
  /// Per key value: row count and SUM(v), as prefix sums over k.
  std::vector<std::int64_t> count_prefix_, sum_prefix_;
};

/// Empty when `got` equals `want` (ints and strings exactly, doubles to a
/// relative 1e-9); otherwise a one-line description of the first mismatch.
[[nodiscard]] std::string compare(const eidb::query::QueryResult& got,
                                  const Expected& want);

}  // namespace perfbench
