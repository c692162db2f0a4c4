// The benchmark's own checks: deterministic inputs, a reference checker
// that catches wrong answers, and open-loop timing from the due time.
// Exits non-zero when any check fails.
#include <algorithm>
#include <chrono>
#include <future>
#include <iostream>
#include <string>
#include <thread>

#include "core/database.hpp"
#include "data.hpp"
#include "open_loop.hpp"
#include "reference.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond \
                << "\n";                                               \
    }                                                                  \
  } while (0)

constexpr std::size_t kSmallFact = 50'000;

std::string statement_stream(std::uint64_t seed) {
  const perfbench::EventsData events = perfbench::make_events(seed, 5000);
  const perfbench::StarData star = perfbench::make_star(seed, kSmallFact);
  const perfbench::BurstQueries burst(events);
  const perfbench::ShortLookups shorts(star);
  perfbench::Rng rng(seed);
  std::string s;
  for (double t : perfbench::poisson_schedule(rng, 500, 0.2))
    s += std::to_string(t) + ";";
  for (int i = 0; i < 50; ++i) s += burst.next(rng).sql + shorts.next(rng).sql;
  return s;
}

void same_seed_same_inputs() {
  CHECK(perfbench::digest(perfbench::make_star(7, kSmallFact)) ==
        perfbench::digest(perfbench::make_star(7, kSmallFact)));
  CHECK(perfbench::digest(perfbench::make_star(7, kSmallFact)) !=
        perfbench::digest(perfbench::make_star(8, kSmallFact)));
  CHECK(perfbench::digest(perfbench::make_events(7)) ==
        perfbench::digest(perfbench::make_events(7)));
  CHECK(perfbench::digest(perfbench::make_events(7)) !=
        perfbench::digest(perfbench::make_events(8)));
  CHECK(statement_stream(7) == statement_stream(7));
  CHECK(statement_stream(7) != statement_stream(8));
}

/// The reference agrees with the engine on every statement, and flags a
/// result with one wrong value, a missing row, or a reordered top-k.
void reference_flags_wrong_results() {
  const perfbench::StarData star = perfbench::make_star(3, kSmallFact);
  eidb::core::Database db;
  perfbench::load_star(db, star);
  const auto queries = perfbench::star_queries(star);
  for (const auto& q : queries) {
    const std::string diff =
        perfbench::compare(db.run_sql(q.sql).result, q.expected);
    if (!diff.empty()) std::cerr << q.id << ": " << diff << "\n";
    CHECK(diff.empty());
  }

  const auto rebuild = [](const eidb::query::QueryResult& r, auto&& edit) {
    eidb::query::QueryResult out(r.column_names());
    std::vector<std::vector<eidb::storage::Value>> rows;
    for (std::size_t i = 0; i < r.row_count(); ++i) rows.push_back(r.row(i));
    edit(rows);
    for (auto& row : rows) out.add_row(std::move(row));
    return out;
  };
  const auto& q3 = queries[2];  // SUM(revenue), COUNT(*)
  const auto q3_result = db.run_sql(q3.sql).result;
  const auto off_by_one = rebuild(q3_result, [](auto& rows) {
    rows[0][1] = eidb::storage::Value(rows[0][1].as_int() + 1);
  });
  CHECK(!perfbench::compare(off_by_one, q3.expected).empty());
  const auto no_rows = rebuild(q3_result, [](auto& rows) { rows.clear(); });
  CHECK(!perfbench::compare(no_rows, q3.expected).empty());

  const auto& q6 = queries[5];  // GROUP BY without ORDER BY: any row order
  const auto reversed = rebuild(db.run_sql(q6.sql).result, [](auto& rows) {
    std::reverse(rows.begin(), rows.end());
  });
  CHECK(perfbench::compare(reversed, q6.expected).empty());

  const auto& q7 = queries[6];  // ORDER BY ... LIMIT: row order matters
  const auto swapped = rebuild(db.run_sql(q7.sql).result, [](auto& rows) {
    std::swap(rows.front(), rows.back());
  });
  CHECK(!perfbench::compare(swapped, q7.expected).empty());

  const auto& q1 = queries[0];  // double SUM: relative 1e-9 tolerance
  const auto nudged = rebuild(db.run_sql(q1.sql).result, [](auto& rows) {
    rows[0][0] = eidb::storage::Value(rows[0][0].as_double() * (1 + 1e-6));
  });
  CHECK(!perfbench::compare(nudged, q1.expected).empty());
}

/// A generator stall must be charged to the requests it delayed: with a
/// service that answers instantly but a first submit that blocks 60 ms,
/// requests due during the stall report their lateness as latency.
void open_loop_times_from_due() {
  using eidb::query::QueryResponse;
  std::vector<double> due;
  for (int i = 0; i < 20; ++i) due.push_back(0.002 * i);
  const auto run = perfbench::run_open_loop(due, [](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::promise<QueryResponse> p;
    p.set_value(QueryResponse{});
    return p.get_future();
  });
  CHECK(run.samples.size() == due.size());
  for (std::size_t i = 1; i < run.samples.size(); ++i) {
    const auto& s = run.samples[i];
    CHECK(s.due_s == due[i]);
    CHECK(s.late_s() > 0.060 - due[i] - 0.005);  // sent after the stall
    CHECK(s.latency_s() >= s.late_s());          // includes the stall
    CHECK(s.seen_s - s.sent_s < 0.030);          // the service was instant
  }
  CHECK(run.samples[1].latency_s() > 0.050);
}

}  // namespace

int main() {
  same_seed_same_inputs();
  reference_flags_wrong_results();
  open_loop_times_from_due();
  if (failures) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
