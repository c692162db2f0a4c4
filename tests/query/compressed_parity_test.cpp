// Differential harness for compressed column segments in the query
// pipeline: the same randomized tables are loaded under every Encoding,
// a generated matrix of filter / group-by / aggregate / join queries runs
// through the packed and plain paths, and the results must be
// BIT-IDENTICAL while the packed path's attributed DRAM bytes never
// exceed the plain path's. This is the proof obligation behind making
// `ExecOptions::use_encodings` the default.
#include <gtest/gtest.h>

#include "parity_matrix.hpp"
#include "scalar_oracle.hpp"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/executor.hpp"
#include "query/sql.hpp"
#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using storage::Catalog;
using storage::Column;
using storage::Encoding;
using storage::Schema;
using storage::Table;
using storage::TypeId;

// The shared fixture (catalog, matrix, expect_identical) lives in
// parity_matrix.hpp so the distributed-parity suite runs the SAME
// queries sharded-vs-single-node.
using parity::expect_identical;
using parity::kRows;
using parity::make_catalog;
using parity::query_matrix;
using parity::recode_all;

/// Runs the full matrix against one catalog: plain baseline (encodings
/// off) vs packed (encodings on), asserting bit-identical results and the
/// DRAM-byte dominance `packed <= plain` per query.
void run_matrix(Catalog& cat, const std::string& config,
                sched::ThreadPool* pool = nullptr) {
  Executor ex(cat);
  for (auto& [name, plan] : query_matrix()) {
    ExecOptions plain_opts;
    plain_opts.use_encodings = false;
    ExecOptions packed_opts;
    packed_opts.use_encodings = true;
    if (pool != nullptr) {
      // Force EVERY morsel-parallel operator — aggregation, join chain,
      // sort/top-k, projection materialization — onto the pool, so the
      // packed run exercises the parallel kernels while the plain
      // baseline stays serial. Results must still be bit-identical: the
      // parallel paths merge per-chunk partials in chunk order, never
      // completion order.
      packed_opts.pool = pool;
      packed_opts.parallel_agg_min_rows = 1;
      packed_opts.parallel_join_min_rows = 1;
      packed_opts.parallel_sort_min_rows = 1;
      packed_opts.parallel_project_min_rows = 1;
    }
    ExecStats plain_stats, packed_stats;
    const QueryResult plain = ex.execute(plan, plain_stats, plain_opts);
    const QueryResult packed = ex.execute(plan, packed_stats, packed_opts);
    const std::string label = config + "/" + name;
    expect_identical(plain, packed, label);
    EXPECT_LE(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes)
        << label;
    EXPECT_GE(packed_stats.dram_bytes_saved, 0.0) << label;
  }
}

TEST(CompressedParity, AutoEncodingMatchesPlain) {
  for (const std::uint64_t seed : {7u, 1337u, 90210u}) {
    Catalog cat = make_catalog(seed);  // set_column auto-encoded already
    run_matrix(cat, "auto/seed" + std::to_string(seed));
  }
}

TEST(CompressedParity, EveryEncodingMatchesPlain) {
  Catalog cat = make_catalog(4242);
  for (const Encoding e :
       {Encoding::kPlain, Encoding::kBitPacked, Encoding::kForBitPacked}) {
    recode_all(cat, e);
    run_matrix(cat, "forced-" + storage::encoding_name(e));
  }
  recode_all(cat, std::nullopt);  // and back to the automatic choice
  run_matrix(cat, "auto-restored");
}

TEST(CompressedParity, ParallelPackedKernelsMatchPlain) {
  Catalog cat = make_catalog(555);
  sched::ThreadPool pool(4);
  run_matrix(cat, "auto+pool", &pool);
}

TEST(CompressedParity, RandomizedThreadCountsMatchPlain) {
  // Thread-count invariance: the whole matrix, serial baseline vs a pool
  // of RANDOM width per iteration. Emitted row order and float sums must
  // not depend on how many workers split the morsels.
  Pcg32 rng(0x7EAD);
  for (const std::uint64_t seed : {99u, 24'601u}) {
    Catalog cat = make_catalog(seed);
    const std::size_t threads = 2 + rng.next_bounded(7);  // 2..8
    sched::ThreadPool pool(threads);
    run_matrix(cat, "auto+pool" + std::to_string(threads), &pool);
  }
}

TEST(CompressedParity, MaskedConjunctsPackedMatchesPlain) {
  // Deep conjunction: the 2nd..4th predicates run the masked packed
  // kernel. Packed and plain must agree with each other and the oracle.
  Catalog cat = make_catalog(31);
  Executor ex(cat);
  const auto plan = QueryBuilder("facts")
                        .filter_int("skew32", 0, 2)  // selective first
                        .filter_int("u32", 100, 900)
                        .filter_int("neg32", -600, 100)
                        .filter_int("wide64", 100'000, 2'900'000)
                        .group_by("tag")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "wide64")
                        .build();
  ExecOptions plain_opts;
  plain_opts.use_encodings = false;
  ExecStats s1, s2;
  const QueryResult want = ex.execute(plan, s1, plain_opts);
  const QueryResult masked = ex.execute(plan, s2);
  expect_identical(want, masked, "masked");
  oracle::expect_matches(oracle::run(cat, plan), masked, plan, "oracle");
  EXPECT_LE(s2.work.dram_bytes, s1.work.dram_bytes);
}

TEST(CompressedParity, ZoneMapsComposeWithPackedSegments) {
  // Clustered column: zone maps prune most blocks; the pruned packed scan
  // must agree with the pruned plain scan and charge no more.
  Catalog cat;
  Table& t = cat.add(Table(
      "clustered", Schema({{"seq", TypeId::kInt32}, {"v", TypeId::kInt64}})));
  std::vector<std::int32_t> seq;
  std::vector<std::int64_t> v;
  for (std::int32_t i = 0; i < 8'000; ++i) {
    seq.push_back(i / 2);  // sorted, two rows per value
    v.push_back(i % 97);
  }
  t.set_column(0, Column::from_int32("seq", seq));
  t.set_column(1, Column::from_int64("v", v));
  ASSERT_NE(t.column("seq").encoded(), nullptr);

  Executor ex(cat);
  const auto plan = QueryBuilder("clustered")
                        .filter_int("seq", 1'000, 1'099)
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "v")
                        .build();
  ExecOptions zm_plain;
  zm_plain.use_zone_maps = true;
  zm_plain.zone_block_rows = 256;
  zm_plain.use_encodings = false;
  ExecOptions zm_packed = zm_plain;
  zm_packed.use_encodings = true;
  ExecStats plain_stats, packed_stats;
  const QueryResult plain = ex.execute(plan, plain_stats, zm_plain);
  const QueryResult packed = ex.execute(plan, packed_stats, zm_packed);
  expect_identical(plain, packed, "zonemap");
  EXPECT_EQ(plain.at(0, 0).as_int(), 200);
  EXPECT_LE(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes);
}

TEST(CompressedParity, WidthZeroAndWidthOneColumns) {
  // All-equal (width 0) and two-valued (width 1) columns through the full
  // pipeline under forced encodings — the degenerate widths of the
  // encoder's domain computation.
  Catalog cat;
  Table& t = cat.add(Table("edge", Schema({{"zero", TypeId::kInt32},
                                           {"one", TypeId::kInt32},
                                           {"v", TypeId::kInt64}})));
  std::vector<std::int32_t> zero(300, 7), one;
  std::vector<std::int64_t> v;
  Pcg32 rng(99);
  for (std::size_t i = 0; i < 300; ++i) {
    one.push_back(static_cast<std::int32_t>(rng.next_bounded(2)));
    v.push_back(rng.next_in_range(-100, 100));
  }
  t.set_column(0, Column::from_int32("zero", zero));
  t.set_column(1, Column::from_int32("one", one));
  t.set_column(2, Column::from_int64("v", v));
  // The all-equal column packs to zero bits under FOR.
  t.recode("zero", Encoding::kForBitPacked);
  ASSERT_NE(t.column("zero").encoded(), nullptr);
  EXPECT_EQ(t.column("zero").encoded()->bits, 0u);
  EXPECT_EQ(t.column("zero").scan_byte_size(), 0u);

  Executor ex(cat);
  for (const char* key : {"zero", "one"}) {
    const auto plan = QueryBuilder("edge")
                          .group_by(key)
                          .aggregate(AggOp::kCount)
                          .aggregate(AggOp::kSum, "v")
                          .aggregate(AggOp::kMin, "zero")
                          .build();
    ExecOptions plain_opts;
    plain_opts.use_encodings = false;
    ExecStats plain_stats, packed_stats;
    const QueryResult plain = ex.execute(plan, plain_stats, plain_opts);
    const QueryResult packed = ex.execute(plan, packed_stats);
    expect_identical(plain, packed, key);
    EXPECT_LE(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes);
  }
}

TEST(CompressedParity, EmptyTableUnderEveryEncoding) {
  Catalog cat;
  Table& t = cat.add(Table(
      "empty", Schema({{"a", TypeId::kInt32}, {"b", TypeId::kInt64}})));
  t.set_column(0, Column::from_int32("a", {}));
  t.set_column(1, Column::from_int64("b", {}));
  // Empty columns auto-choose plain but accept forced encodings.
  EXPECT_EQ(t.column("a").encoding(), Encoding::kPlain);
  for (const Encoding e : {Encoding::kBitPacked, Encoding::kForBitPacked}) {
    t.recode("a", e);
    t.recode("b", e);
    Executor ex(cat);
    ExecStats stats;
    const auto plan = QueryBuilder("empty")
                          .filter_int("a", 0, 10)
                          .aggregate(AggOp::kCount)
                          .aggregate(AggOp::kSum, "b")
                          .build();
    const QueryResult r = ex.execute(plan, stats);
    EXPECT_EQ(r.at(0, 0).as_int(), 0);
    EXPECT_EQ(r.at(0, 1).as_int(), 0);
  }
}

TEST(CompressedParity, MixedConsumersChargeOneRepresentation) {
  // u32 is both a composite group key (plain-only synthesis) and a direct
  // aggregate input: the whole query must consume it through ONE
  // representation — the plain array — and charge exactly that once.
  Catalog cat = make_catalog(77);
  const Table& t = cat.get("facts");
  ASSERT_NE(t.column("u32").encoded(), nullptr);
  Executor ex(cat);
  const auto plan = QueryBuilder("facts")
                        .group_by("u32")
                        .group_by("tag")
                        .aggregate(AggOp::kSum, "u32")
                        .aggregate(AggOp::kCount)
                        .build();
  ExecOptions plain_opts;
  plain_opts.use_encodings = false;
  ExecStats plain_stats, packed_stats;
  const QueryResult plain = ex.execute(plan, plain_stats, plain_opts);
  const QueryResult packed = ex.execute(plan, packed_stats);
  expect_identical(plain, packed, "mixed-consumers");
  // Composite keys force u32 and tag plain for every consumer: the two
  // runs charge identical bytes (u32 once at plain width + tag once, plus
  // the tag dictionary payload the group emit gathers — the group count
  // covers the dictionary, so the cap bills one full payload read).
  EXPECT_DOUBLE_EQ(packed_stats.work.dram_bytes, plain_stats.work.dram_bytes);
  EXPECT_DOUBLE_EQ(
      packed_stats.work.dram_bytes,
      static_cast<double>(t.column("u32").byte_size() +
                          t.column("tag").byte_size() +
                          t.column("tag").dictionary().payload_bytes()));

  // Same property for an expression reference next to a packed group key:
  // the leaves of SUM(wide64 * wide64) bind to wide64's packed image, the
  // view MIN(wide64) consumes too, so wide64 is charged once at its packed
  // size, like the single packed key skew32.
  const auto expr = exec::Expr::binary(exec::ExprOp::kMul,
                                       exec::Expr::column("wide64"),
                                       exec::Expr::column("wide64"));
  const auto plan2 = QueryBuilder("facts")
                         .group_by("skew32")
                         .aggregate_expr(AggOp::kSum, expr)
                         .aggregate(AggOp::kMin, "wide64")
                         .build();
  ExecStats s_plain, s_packed;
  const QueryResult r_plain = ex.execute(plan2, s_plain, plain_opts);
  const QueryResult r_packed = ex.execute(plan2, s_packed);
  expect_identical(r_plain, r_packed, "expr-mixed");
  ASSERT_LT(t.column("wide64").scan_byte_size(),
            t.column("wide64").byte_size());
  EXPECT_DOUBLE_EQ(
      s_packed.work.dram_bytes,
      static_cast<double>(t.column("skew32").scan_byte_size() +
                          t.column("wide64").scan_byte_size()));
}

// Join queries against the independent scalar oracle (scalar_oracle.hpp):
// nested loops over every join in declaration order, value-domain key
// equality, no planner reordering. Results must be exact under every
// encoding; plans with ORDER BY are checked for sortedness, LIMIT row
// count and per-group values (the order of tied sort keys is the
// executor's deterministic tie-break, which the oracle does not model).
TEST(CompressedParity, JoinMatrixMatchesNestedLoopOracle) {
  Catalog cat = make_catalog(2026);
  Executor ex(cat);

  for (const std::optional<Encoding> forced :
       {std::optional<Encoding>{}, std::optional<Encoding>{Encoding::kPlain},
        std::optional<Encoding>{Encoding::kBitPacked},
        std::optional<Encoding>{Encoding::kForBitPacked}}) {
    recode_all(cat, forced);
    for (auto& [name, plan] : query_matrix()) {
      if (!plan.has_join() || !plan.is_aggregate()) continue;
      const std::string label =
          (forced ? storage::encoding_name(*forced) : "auto") + "/" + name;
      ExecStats stats;
      const QueryResult got = ex.execute(plan, stats);
      oracle::expect_matches(oracle::run(cat, plan), got, plan, label);
    }
  }
}

// Code-domain execution acceptance for string-keyed joins: a grouped
// string join charges EXACTLY the int32 code arrays of both key columns
// plus the consumed aggregate / group-key columns (and the group key's
// dictionary payload at emit). The join keys' string payloads never
// appear in the DRAM ledger — no per-row string compares, no full-string
// materialization before projection.
TEST(CompressedParity, StringJoinChargesCodeDomainBytesExactly) {
  Catalog cat = make_catalog(606);
  Executor ex(cat);
  const Table& facts = cat.get("facts");
  const Table& dim = cat.get("dim");
  const auto plan = QueryBuilder("facts")
                        .filter_int("u32", 500, 560)
                        .join("dim", "tag", "skey")
                        .group_by("dim.cat")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "wide64")
                        .aggregate(AggOp::kSum, "dim.weight")
                        .build();
  ExecOptions opts;
  opts.use_encodings = false;  // plain widths -> one exact byte formula
  ExecStats stats;
  const QueryResult got = ex.execute(plan, stats, opts);
  ASSERT_EQ(got.row_count(), 3u);  // red / green / blue all reached

  // String columns store int32 codes, so byte_size() IS the code-array
  // size: the formula below contains the key dictionaries' payloads
  // exactly zero times.
  const double want =
      static_cast<double>(facts.column("u32").byte_size()) +    // filter
      static_cast<double>(facts.column("tag").byte_size()) +    // probe codes
      static_cast<double>(dim.column("skey").byte_size()) +     // build codes
      static_cast<double>(dim.column("cat").byte_size()) +      // group key
      dim.column("cat").dictionary().payload_bytes() +          // emit gather
      static_cast<double>(facts.column("wide64").byte_size()) +
      static_cast<double>(dim.column("weight").byte_size());
  EXPECT_DOUBLE_EQ(stats.work.dram_bytes, want);
  EXPECT_LT(stats.work.dram_bytes,
            want + facts.column("tag").dictionary().payload_bytes());
}

// The acceptance shape of the physical-plan refactor, end to end: a
// 3-table grouped star join with ORDER BY + LIMIT parses from SQL,
// executes through the PhysicalPlan compiler, matches the nested-loop
// oracle bit-exactly under every column encoding, and reports
// per-operator joule/DRAM attribution that sums to the query's totals.
TEST(CompressedParity, StarJoinOrderByLimitFromSqlEndToEnd) {
  Catalog cat = make_catalog(777);
  Executor ex(cat);
  const LogicalPlan plan = parse_sql(
      "SELECT COUNT(*), SUM(dim.weight), SUM(dim2.score), MAX(u32) "
      "FROM facts "
      "JOIN dim ON facts.u32 = dim.key "
      "JOIN dim2 ON facts.u32 = dim2.key2 "
      "WHERE u32 BETWEEN 0 AND 640 AND dim.weight BETWEEN -8 AND 8 "
      "GROUP BY tag ORDER BY tag DESC LIMIT 4");
  ASSERT_EQ(plan.joins.size(), 2u);

  for (const std::optional<Encoding> forced :
       {std::optional<Encoding>{}, std::optional<Encoding>{Encoding::kPlain},
        std::optional<Encoding>{Encoding::kBitPacked},
        std::optional<Encoding>{Encoding::kForBitPacked}}) {
    recode_all(cat, forced);
    const std::string label =
        forced ? storage::encoding_name(*forced) : "auto";
    ExecStats stats;
    const QueryResult got = ex.execute(plan, stats);
    oracle::expect_matches(oracle::run(cat, plan), got, plan, label);

    // Per-operator attribution covers every charge: the deltas sum to
    // the query totals exactly, so per-operator joules (linear in
    // seconds and DRAM bytes) sum to the query's attributed joules.
    ASSERT_GE(stats.operators.size(), 4u) << label;  // scans, joins, agg, sort
    hw::Work sum;
    for (const OperatorStats& op : stats.operators) sum += op.work;
    EXPECT_DOUBLE_EQ(sum.cpu_cycles, stats.work.cpu_cycles) << label;
    EXPECT_DOUBLE_EQ(sum.dram_bytes, stats.work.dram_bytes) << label;
  }
}

TEST(CompressedParity, BitPackedRejectsNegativeDomains) {
  std::vector<std::int32_t> v = {-3, 0, 5};
  Column c = Column::from_int32("n", v);
  EXPECT_THROW(c.set_encoding(Encoding::kBitPacked), Error);
  // FOR handles the same domain.
  c.set_encoding(Encoding::kForBitPacked);
  ASSERT_NE(c.encoded(), nullptr);
  EXPECT_EQ(c.encoded()->reference, -3);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(c.packed_view().value_at(i), v[i]);
}

}  // namespace
}  // namespace eidb::query
