// Robustness fuzzing of the SQL parser and executor: random token soups
// and mutated valid statements must either parse or throw eidb::Error —
// never crash, hang, or throw anything else — and generated *valid*
// statements must produce identical results whichever physical column
// encoding (plain / bit-packed / FOR) each column is toggled to — and
// whichever shard count the FROM table is partitioned into — so the
// fuzzer exercises the packed scan/agg kernels and the distributed
// partial-merge / gather paths, not just the plain single-node ones.
// Every generated aggregate statement is also checked against the scalar
// oracle (scalar_oracle.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/executor.hpp"
#include "query/sql.hpp"
#include "scalar_oracle.hpp"
#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "storage/table.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

const char* kTokens[] = {
    "SELECT", "FROM",  "WHERE",   "AND",   "GROUP", "BY",    "ORDER",
    "LIMIT",  "JOIN",  "ON",      "ASC",   "DESC",  "BETWEEN", "COUNT",
    "SUM",    "MIN",   "MAX",     "AVG",   "*",     "(",     ")",
    ",",      "=",     "<",       ">",     "<=",    ">=",    ".",
    "+",      "-",     "/",       "t",     "col",   "x",     "42",
    "-7",     "3.14",  "'str'",   "''",    "tbl2",  "1000000"};

void expect_parse_or_error(const std::string& sql) {
  try {
    (void)parse_sql(sql);
  } catch (const Error&) {
    // expected failure mode
  }
  // Any other exception type or a crash fails the test framework itself.
}

TEST(SqlFuzz, RandomTokenSoup) {
  Pcg32 rng(0xF00D);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.next_bounded(20));
    for (int i = 0; i < len; ++i) {
      sql += kTokens[rng.next_bounded(std::size(kTokens))];
      sql += ' ';
    }
    expect_parse_or_error(sql);
  }
}

TEST(SqlFuzz, MutatedValidStatements) {
  const std::string base =
      "SELECT COUNT(*), SUM(a * (1 - b)) FROM t JOIN u ON t.k = u.k WHERE "
      "a BETWEEN 1 AND 9 AND u.c = 'x' GROUP BY g ORDER BY g DESC LIMIT 5";
  // The pristine statement must parse.
  EXPECT_NO_THROW((void)parse_sql(base));

  Pcg32 rng(0xBEEF);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string sql = base;
    const int mutations = 1 + static_cast<int>(rng.next_bounded(4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = rng.next_bounded(static_cast<std::uint32_t>(sql.size()));
      switch (rng.next_bounded(3)) {
        case 0:  // delete a character
          sql.erase(pos, 1);
          break;
        case 1:  // duplicate a character
          sql.insert(pos, 1, sql[pos]);
          break;
        default:  // replace with a random printable
          sql[pos] = static_cast<char>(' ' + rng.next_bounded(94));
          break;
      }
    }
    expect_parse_or_error(sql);
  }
}

// ---------------------------------------------------------------------------
// Execution fuzz under random column encodings.
// ---------------------------------------------------------------------------

storage::Catalog make_fuzz_catalog(std::uint64_t seed) {
  using storage::Column;
  using storage::TypeId;
  storage::Catalog cat;
  storage::Table& t = cat.add(storage::Table(
      "t", storage::Schema({{"a", TypeId::kInt32},
                            {"b", TypeId::kInt64},
                            {"g", TypeId::kInt32},
                            {"s", TypeId::kString},
                            {"d", TypeId::kDouble},
                            {"dj", TypeId::kDouble}})));
  Pcg32 rng(seed);
  std::vector<std::int32_t> a, g;
  std::vector<std::int64_t> b;
  std::vector<std::string> s;
  std::vector<double> d, dj;
  const char* tags[] = {"a", "bb", "ccc", "dddd"};
  const std::size_t rows = 900 + rng.next_bounded(300);  // partial tails
  for (std::size_t i = 0; i < rows; ++i) {
    a.push_back(static_cast<std::int32_t>(rng.next_in_range(-40, 400)));
    b.push_back(rng.next_in_range(0, 90'000));
    g.push_back(static_cast<std::int32_t>(rng.next_bounded(12)));
    s.emplace_back(tags[rng.next_bounded(4)]);
    d.push_back(rng.next_double() * 10.0);
    dj.push_back(0.5 * static_cast<double>(rng.next_bounded(10)));
  }
  t.set_column(0, Column::from_int32("a", a));
  t.set_column(1, Column::from_int64("b", b));
  t.set_column(2, Column::from_int32("g", g));
  t.set_column(3, Column::from_strings("s", s));
  t.set_column(4, Column::from_double("d", d));
  t.set_column(5, Column::from_double("dj", dj));

  // u(key, w, c, sk, dkey): the join build side — key overlaps t.g's
  // [0, 12) domain with duplicates, so generated joins fan out. sk's
  // dictionary only partially overlaps t.s ("a" is probe-only, "eeeee"
  // build-only), and dkey's 12-value domain covers t.dj's 10 plus two
  // build-only values — generated string / double joins exercise the
  // cross-dictionary remap with misses on both sides.
  storage::Table& u = cat.add(storage::Table(
      "u", storage::Schema({{"key", TypeId::kInt32},
                            {"w", TypeId::kInt64},
                            {"c", TypeId::kString},
                            {"sk", TypeId::kString},
                            {"dkey", TypeId::kDouble}})));
  std::vector<std::int32_t> ukey;
  std::vector<std::int64_t> uw;
  std::vector<std::string> uc, usk;
  std::vector<double> udkey;
  const char* cats[] = {"north", "south", "east"};
  const char* sks[] = {"bb", "ccc", "dddd", "eeeee"};
  const std::size_t urows = 20 + rng.next_bounded(30);
  for (std::size_t i = 0; i < urows; ++i) {
    ukey.push_back(static_cast<std::int32_t>(rng.next_bounded(14)));
    uw.push_back(rng.next_in_range(-500, 500));
    uc.emplace_back(cats[rng.next_bounded(3)]);
    usk.emplace_back(sks[rng.next_bounded(4)]);
    udkey.push_back(0.5 * static_cast<double>(rng.next_bounded(12)));
  }
  u.set_column(0, Column::from_int32("key", ukey));
  u.set_column(1, Column::from_int64("w", uw));
  u.set_column(2, Column::from_strings("c", uc));
  u.set_column(3, Column::from_strings("sk", usk));
  u.set_column(4, Column::from_double("dkey", udkey));

  // v(vkey, z): a second dimension keyed on t.g's domain — generated
  // statements chain JOIN u ... JOIN v ... into multi-way plans.
  storage::Table& v = cat.add(storage::Table(
      "v", storage::Schema({{"vkey", TypeId::kInt32},
                            {"z", TypeId::kInt64}})));
  std::vector<std::int32_t> vkey;
  std::vector<std::int64_t> vz;
  const std::size_t vrows = 10 + rng.next_bounded(20);
  for (std::size_t i = 0; i < vrows; ++i) {
    vkey.push_back(static_cast<std::int32_t>(rng.next_bounded(14)));
    vz.push_back(rng.next_in_range(-50, 50));
  }
  v.set_column(0, Column::from_int32("vkey", vkey));
  v.set_column(1, Column::from_int64("z", vz));
  return cat;
}

/// Random valid statement over t's (and sometimes u's / v's) columns:
/// filters, single and multi-way joins with and without GROUP BY (probe-
/// and build-side keys and aggregates), ORDER BY / LIMIT over both
/// projections and aggregate output.
std::string generate_sql(Pcg32& rng) {
  // Expression aggregates mix packed int leaves (a, b, g) with the double
  // d under *, -, and / by a non-zero literal.
  const char* aggs[] = {"COUNT(*)",     "SUM(a)",       "SUM(b)",
                        "MIN(a)",       "MAX(b)",       "AVG(d)",
                        "MIN(g)",       "MAX(g)",       "AVG(b)",
                        "SUM(a + g)",   "SUM(a * g)",   "AVG(b - a)",
                        "MIN(b / 7)",   "MAX(d * g)",   "SUM(d - b / 4)",
                        "AVG(a * d)",   "MIN(g - d)",   "MAX(a * b / 3)"};
  const char* join_aggs[] = {"COUNT(*)",  "SUM(a)",      "SUM(b)",
                             "MIN(a)",    "MAX(g)",      "SUM(u.w)",
                             "MIN(u.w)",  "MAX(u.w)"};
  const char* multi_join_aggs[] = {"COUNT(*)", "SUM(a)",   "SUM(u.w)",
                                   "MIN(u.w)", "SUM(v.z)", "MAX(v.z)",
                                   "MIN(b)"};
  std::string sql = "SELECT ";
  const bool projection = rng.next_bounded(5) == 0;
  const int joins =
      projection ? static_cast<int>(rng.next_bounded(2))
                 : (rng.next_bounded(3) == 0
                        ? 1 + static_cast<int>(rng.next_bounded(2))
                        : 0);
  const bool join = joins > 0;
  if (projection) {
    sql += "a, b, g FROM t";
  } else {
    const int n = 1 + static_cast<int>(rng.next_bounded(3));
    for (int i = 0; i < n; ++i) {
      if (i > 0) sql += ", ";
      if (joins >= 2)
        sql += multi_join_aggs[rng.next_bounded(std::size(multi_join_aggs))];
      else if (joins == 1)
        sql += join_aggs[rng.next_bounded(std::size(join_aggs))];
      else
        sql += aggs[rng.next_bounded(std::size(aggs))];
    }
    sql += " FROM t";
  }
  if (joins >= 1) {
    // Join key type: integer, string (cross-dictionary remap), or double
    // (ordered double-code domains).
    const char* join_on[] = {"t.g = u.key", "t.s = u.sk", "t.dj = u.dkey"};
    sql += std::string(" JOIN u ON ") + join_on[rng.next_bounded(3)];
  }
  if (joins >= 2) sql += " JOIN v ON t.g = v.vkey";
  const int preds = static_cast<int>(rng.next_bounded(3));
  for (int i = 0; i < preds; ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    switch (rng.next_bounded(join ? 5 : 4)) {
      case 0:
        sql += "a BETWEEN " + std::to_string(rng.next_in_range(-60, 100)) +
               " AND " + std::to_string(rng.next_in_range(100, 450));
        break;
      case 1:
        sql += "b <= " + std::to_string(rng.next_in_range(0, 95'000));
        break;
      case 2:
        sql += "g = " + std::to_string(rng.next_in_range(0, 13));
        break;
      case 3:
        sql += "s <= 'ccc'";
        break;
      default:
        sql += "u.w BETWEEN " + std::to_string(rng.next_in_range(-500, 0)) +
               " AND " + std::to_string(rng.next_in_range(0, 500));
        break;
    }
  }
  bool grouped = false;
  if (!projection && rng.next_bounded(2) == 0) {
    grouped = true;
    if (joins >= 2) {
      const char* keys[] = {"g", "s", "u.c", "v.vkey", "dj"};
      sql += std::string(" GROUP BY ") + keys[rng.next_bounded(5)];
    } else if (joins == 1) {
      const char* keys[] = {"g", "s", "u.c", "u.key", "dj", "u.sk"};
      sql += std::string(" GROUP BY ") + keys[rng.next_bounded(6)];
    } else {
      const char* keys[] = {"g", "s", "dj"};
      sql += std::string(" GROUP BY ") + keys[rng.next_bounded(3)];
    }
  }
  if (projection) {
    sql += " ORDER BY b DESC LIMIT 20";
  } else if (grouped && rng.next_bounded(3) == 0) {
    // ORDER BY over aggregate output (by count so ties are rare), with
    // and without LIMIT.
    sql += " ORDER BY COUNT(*) DESC";
    if (rng.next_bounded(2) == 0) sql += " LIMIT 5";
  }
  return sql;
}

TEST(SqlFuzz, ExecutionParityUnderRandomEncodings) {
  using storage::Encoding;
  storage::Catalog cat = make_fuzz_catalog(0xE1DB);
  storage::Table& t = cat.get("t");
  storage::Table& u = cat.get("u");
  storage::Table& v = cat.get("v");
  Executor ex(cat);
  Pcg32 rng(0xC0DE);
  const Encoding encodings[] = {Encoding::kPlain, Encoding::kBitPacked,
                                Encoding::kForBitPacked};
  // Pools of different widths: each iteration randomly picks serial
  // execution or one of these, with every parallel threshold forced to 1,
  // so the fuzzer also hunts thread-count-dependent results.
  sched::ThreadPool pool2(2), pool3(3), pool8(8);
  sched::ThreadPool* pools[] = {nullptr, &pool2, &pool3, &pool8};
  for (int trial = 0; trial < 300; ++trial) {
    // Toggle every integer column's physical encoding for this iteration
    // (kBitPacked degrades to FOR on negative-domain columns).
    const auto toggle = [&](storage::Table& table, const char* col) {
      Encoding e = encodings[rng.next_bounded(3)];
      if (e == Encoding::kBitPacked && table.column(col).stats().min < 0)
        e = Encoding::kForBitPacked;
      table.recode(col, e);
    };
    for (const char* col : {"a", "b", "g", "s"}) toggle(t, col);
    for (const char* col : {"key", "w", "c", "sk"}) toggle(u, col);
    for (const char* col : {"vkey", "z"}) toggle(v, col);
    // Repartition the FROM table at a random shard count: the sharded arm
    // below must agree with single-node whatever the row placement.
    const std::size_t shard_counts[] = {1, 2, 4, 8};
    const std::size_t shards = shard_counts[rng.next_bounded(4)];
    t.build_partitions("g", shards);
    const std::string sql = generate_sql(rng);
    LogicalPlan plan;
    try {
      plan = parse_sql(sql);
    } catch (const Error&) {
      FAIL() << "generated SQL failed to parse: " << sql;
    }
    ExecOptions plain_opts;
    plain_opts.use_encodings = false;
    ExecOptions packed_opts;
    packed_opts.pool = pools[rng.next_bounded(std::size(pools))];
    if (packed_opts.pool != nullptr) {
      packed_opts.parallel_agg_min_rows = 1;
      packed_opts.parallel_join_min_rows = 1;
      packed_opts.parallel_sort_min_rows = 1;
      packed_opts.parallel_project_min_rows = 1;
    }
    ExecStats plain_stats, packed_stats;
    QueryResult want, got;
    bool plain_threw = false, packed_threw = false;
    try {
      want = ex.execute(plan, plain_stats, plain_opts);
    } catch (const Error&) {
      plain_threw = true;
    }
    try {
      got = ex.execute(plan, packed_stats, packed_opts);
    } catch (const Error&) {
      packed_threw = true;
    }
    // A semantic rejection is fine — but both paths must agree on it; a
    // one-sided throw is exactly the packed/plain divergence this fuzzer
    // hunts.
    ASSERT_EQ(plain_threw, packed_threw) << sql;
    if (plain_threw) continue;
    const auto expect_identical = [&](const QueryResult& other,
                                      const char* what) {
      ASSERT_EQ(want.row_count(), other.row_count()) << what << ": " << sql;
      ASSERT_EQ(want.column_names(), other.column_names())
          << what << ": " << sql;
      for (std::size_t r = 0; r < want.row_count(); ++r)
        for (std::size_t c = 0; c < want.column_count(); ++c)
          ASSERT_EQ(want.at(r, c), other.at(r, c))
              << what << ": " << sql << " row " << r << " col " << c;
    };
    expect_identical(got, "packed");
    EXPECT_LE(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes)
        << sql;
    // Sharded arm: a statement the single-node paths accept must also run
    // sharded (same pool), bit-identically, at whatever shard count this
    // iteration drew.
    ExecOptions dist_opts = packed_opts;
    dist_opts.shard_count = shards;
    ExecStats dist_stats;
    QueryResult dist;
    try {
      dist = ex.execute(plan, dist_stats, dist_opts);
    } catch (const Error& e) {
      FAIL() << "sharded(" << shards << ") rejected what single-node ran: "
             << sql << " — " << e.what();
    }
    expect_identical(dist, "sharded");
    EXPECT_EQ(dist_stats.shards_executed, shards) << sql;
    if (shards == 1) {
      EXPECT_EQ(dist_stats.wire_messages, 0u) << sql;
    }
    // Every aggregate statement must also equal the scalar oracle:
    // nested-loop matches with value-domain keys, whatever the key type,
    // join count, grouping or ORDER BY. Integer cells (all of them in join
    // statements) compare exactly; finite double SUM / AVG within 1e-9
    // relative, since the engine sums in blocks.
    if (plan.is_aggregate())
      oracle::expect_matches(oracle::run(cat, plan), want, plan,
                             "oracle: " + sql, 1e-9);
  }
}

TEST(SqlFuzz, PathologicalInputs) {
  expect_parse_or_error(std::string(10000, '('));
  expect_parse_or_error("SELECT " + std::string(5000, '*') + " FROM t");
  expect_parse_or_error(std::string(1 << 16, 'a'));
  expect_parse_or_error("SELECT SUM(" + std::string(2000, '-') + "1) FROM t");
  std::string deep = "SELECT SUM(";
  for (int i = 0; i < 1000; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 1000; ++i) deep += ")";
  deep += ") FROM t";
  expect_parse_or_error(deep);
}

}  // namespace
}  // namespace eidb::query
