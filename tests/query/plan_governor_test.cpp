// The plan governor: operator classification, EWMA calibration, the
// race-to-idle vs pace decision, core clamping to the worker pool, and
// the prediction-vs-measurement loop (governor-predicted joules against
// the measured ExecStats attribution). Also asserts the tentpole's
// accounting invariant: per-operator work deltas sum to the query totals
// byte-exactly under every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/database.hpp"
#include "query/executor.hpp"
#include "query/physical_plan.hpp"
#include "query/plan.hpp"
#include "query/plan_governor.hpp"
#include "sched/governor.hpp"
#include "sched/thread_pool.hpp"
#include "storage/column.hpp"
#include "storage/table.hpp"
#include "util/rng.hpp"

namespace eidb::query {
namespace {

using storage::Catalog;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TypeId;

TEST(PlanGovernor, ClassifyOperatorNames) {
  EXPECT_EQ(classify_operator("scan+filter(lineorder)"), OperatorKind::kScan);
  EXPECT_EQ(classify_operator("hash-join(dates)"), OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("hash-join(customer) radix-join(dates)"),
            OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("dense-join(dim)+materialize"),
            OperatorKind::kJoin);
  EXPECT_EQ(classify_operator("aggregate(join)"), OperatorKind::kAggregate);
  EXPECT_EQ(classify_operator("group-aggregate"), OperatorKind::kAggregate);
  EXPECT_EQ(classify_operator("top-k(revenue)"), OperatorKind::kSort);
  EXPECT_EQ(classify_operator("sort(neg64)"), OperatorKind::kSort);
  EXPECT_EQ(classify_operator("materialize(join)"),
            OperatorKind::kMaterialize);
  EXPECT_EQ(classify_operator("something-new"), OperatorKind::kOther);
}

TEST(PlanGovernor, CalibrationSeedsThenSmooths) {
  OperatorCalibration cal(/*alpha=*/0.5);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kScan), 1.0);
  // First observation seeds the factor directly.
  cal.observe(OperatorKind::kScan, /*predicted_s=*/1.0, /*measured_s=*/2.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kScan), 2.0);
  // Subsequent observations blend with alpha.
  cal.observe(OperatorKind::kScan, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kScan), 0.5 * 2.0 + 0.5 * 4.0);
  // Ratios are clamped so one outlier cannot poison the estimate.
  cal.observe(OperatorKind::kJoin, 1.0, 1e9);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kJoin), 20.0);
  cal.observe(OperatorKind::kSort, 1e9, 1.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kSort), 0.05);
  // Degenerate inputs are ignored.
  cal.observe(OperatorKind::kAggregate, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(cal.factor(OperatorKind::kAggregate), 1.0);
}

Catalog make_catalog(std::size_t rows) {
  Catalog cat;
  Table& t = cat.add(Table("facts", Schema({{"k", TypeId::kInt64},
                                            {"v", TypeId::kInt64}})));
  Pcg32 rng(7);
  std::vector<std::int64_t> k(rows), v(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    k[i] = rng.next_bounded(100);
    v[i] = rng.next_bounded(1000);
  }
  t.set_column(0, Column::from_int64("k", k));
  t.set_column(1, Column::from_int64("v", v));

  Table& dim = cat.add(Table("dim", Schema({{"key", TypeId::kInt64},
                                            {"w", TypeId::kInt64}})));
  std::vector<std::int64_t> dk(100), dw(100);
  for (std::int64_t d = 0; d < 100; ++d) {
    dk[static_cast<std::size_t>(d)] = d;
    dw[static_cast<std::size_t>(d)] = d % 9;
  }
  dim.set_column(0, Column::from_int64("key", dk));
  dim.set_column(1, Column::from_int64("w", dw));
  return cat;
}

LogicalPlan star_plan() {
  return QueryBuilder("facts")
      .filter_int("v", 0, 800)
      .join("dim", "k", "key")
      .group_by("dim.w")
      .aggregate(AggOp::kCount)
      .aggregate(AggOp::kSum, "v")
      .order_by("count", false)
      .limit(5)
      .build();
}

TEST(PlanGovernor, RaceToIdleWhenDeepSleepAvailable) {
  Catalog cat = make_catalog(10'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const sched::Governor gov(machine, {.allow_deep_sleep = true});
  sched::ThreadPool pool(4);
  ExecOptions options;
  options.governor = &gov;
  options.pool = &pool;
  const PhysicalPlan phys = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(phys.governor.enabled);
  EXPECT_EQ(phys.governor.policy, "race-to-idle");
  EXPECT_DOUBLE_EQ(phys.governor.state.freq_ghz,
                   machine.dvfs.fastest().freq_ghz);
  EXPECT_GT(phys.governor.est_busy_s, 0.0);
  EXPECT_GT(phys.governor.est_energy_j, 0.0);
  EXPECT_GT(phys.governor.est_work.cpu_cycles, 0.0);
  // EXPLAIN carries the decision.
  EXPECT_NE(phys.explain().find("governor: 4 cores x"), std::string::npos);
}

TEST(PlanGovernor, PacesAtEfficientStateWithoutDeepSleep) {
  // Consolidated server: the package cannot sleep, so the governor paces
  // at the incremental-efficient P-state — which on the superlinear CMOS
  // curve of the server spec is slower than f_max (the E7 crossover).
  Catalog cat = make_catalog(10'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();
  const sched::Governor gov(machine, {.allow_deep_sleep = false});
  sched::ThreadPool pool(4);
  ExecOptions options;
  options.governor = &gov;
  options.pool = &pool;
  const PhysicalPlan phys = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(phys.governor.enabled);
  EXPECT_EQ(phys.governor.policy, "pace");
  const hw::DvfsState expect_state =
      gov.incremental_efficient_state(phys.governor.est_work);
  EXPECT_DOUBLE_EQ(phys.governor.state.freq_ghz, expect_state.freq_ghz);
  EXPECT_LT(phys.governor.state.freq_ghz, machine.dvfs.fastest().freq_ghz);
}

TEST(PlanGovernor, DeadlineArbitratesRaceVsPace) {
  Catalog cat = make_catalog(10'000);
  const sched::Governor gov(hw::MachineSpec::server(),
                            {.allow_deep_sleep = false});
  ExecOptions options;
  options.governor = &gov;
  // A generous deadline with only shallow idle available: pacing beats
  // racing (slack burns idle power either way, but pace's busy phase is
  // cheaper on the superlinear power curve).
  options.deadline_s = 3600.0;
  const PhysicalPlan paced = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(paced.governor.enabled);
  EXPECT_EQ(paced.governor.policy, "pace");
  // An unattainable deadline degrades to f_max under either policy.
  options.deadline_s = 1e-12;
  const PhysicalPlan raced = compile_plan(cat, star_plan(), options);
  ASSERT_TRUE(raced.governor.enabled);
  EXPECT_DOUBLE_EQ(raced.governor.state.freq_ghz,
                   gov.machine().dvfs.fastest().freq_ghz);
}

TEST(PlanGovernor, CoresClampedToPoolAndMachine) {
  Catalog cat = make_catalog(1'000);
  const hw::MachineSpec machine = hw::MachineSpec::server();  // 8 cores
  const sched::Governor gov(machine, {.allow_deep_sleep = true});
  ExecOptions options;
  options.governor = &gov;

  // No pool: single-core decision.
  const PhysicalPlan serial = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(serial.governor.cores, 1);

  // Pool narrower than the machine: clamp to the pool.
  sched::ThreadPool pool3(3);
  options.pool = &pool3;
  const PhysicalPlan narrow = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(narrow.governor.cores, 3);

  // Pool wider than the machine: clamp to the machine's cores.
  sched::ThreadPool pool16(16);
  options.pool = &pool16;
  const PhysicalPlan wide = compile_plan(cat, star_plan(), options);
  EXPECT_EQ(wide.governor.cores, machine.cores);
}

TEST(PlanGovernor, OperatorWorkSumsExactlyUnderEveryThreadCount) {
  // The tentpole's accounting invariant: every charge lands in exactly
  // one operator scope, so per-operator work deltas sum to the query
  // totals BYTE-EXACTLY — serial and at any pool width.
  Catalog cat = make_catalog(50'000);
  Executor ex(cat);
  QueryResult serial_result;
  for (const std::size_t threads : {0u, 2u, 5u, 8u}) {
    sched::ThreadPool pool(threads == 0 ? 1 : threads);
    ExecOptions options;
    if (threads != 0) {
      options.pool = &pool;
      options.parallel_agg_min_rows = 1;
      options.parallel_join_min_rows = 1;
      options.parallel_sort_min_rows = 1;
      options.parallel_project_min_rows = 1;
    }
    ExecStats stats;
    const QueryResult result = ex.execute(star_plan(), stats, options);
    double cycles = 0, bytes = 0;
    for (const OperatorStats& op : stats.operators) {
      cycles += op.work.cpu_cycles;
      bytes += op.work.dram_bytes;
    }
    EXPECT_EQ(cycles, stats.work.cpu_cycles) << threads << " threads";
    EXPECT_EQ(bytes, stats.work.dram_bytes) << threads << " threads";
    // And the result itself is thread-count invariant.
    if (threads == 0) {
      serial_result = result;
    } else {
      ASSERT_EQ(result.row_count(), serial_result.row_count());
      for (std::size_t r = 0; r < result.row_count(); ++r)
        for (std::size_t c = 0; c < result.column_count(); ++c)
          EXPECT_EQ(result.at(r, c), serial_result.at(r, c))
              << threads << " threads, row " << r << " col " << c;
    }
  }
}

TEST(PlanGovernor, PredictionWithinToleranceOfMeasurementAfterCalibration) {
  // The closed loop on a bench-shaped query: after a few runs the EWMA
  // calibration pulls the governor's busy-time estimate toward measured
  // reality, so the predicted attribution (est_work at the chosen state
  // over est_busy_s) lands within an order of magnitude of the measured
  // ExecStats attribution. (The bound is loose on purpose: the model
  // machine is a Sandy-Bridge-era server, the host is whatever CI runs —
  // calibration corrects cycles, not the DRAM/power split.)
  core::Database db;
  Table& t = db.create_table("facts", Schema({{"k", TypeId::kInt64},
                                              {"v", TypeId::kInt64}}));
  Pcg32 rng(11);
  constexpr std::size_t kRows = 200'000;
  std::vector<std::int64_t> k(kRows), v(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    k[i] = rng.next_bounded(64);
    v[i] = rng.next_bounded(1000);
  }
  t.set_column(0, Column::from_int64("k", k));
  t.set_column(1, Column::from_int64("v", v));

  const auto plan = QueryBuilder("facts")
                        .filter_int("v", 100, 900)
                        .group_by("k")
                        .aggregate(AggOp::kCount)
                        .aggregate(AggOp::kSum, "v")
                        .build();
  core::RunResult run;
  for (int i = 0; i < 4; ++i) run = db.run(plan);  // calibration warms up
  ASSERT_TRUE(run.governor.enabled);
  const double predicted = db.machine().incremental_busy_energy_j(
      run.governor.est_work, run.governor.state, run.governor.est_busy_s);
  const double measured = run.attributed_j;
  ASSERT_GT(measured, 0.0);
  ASSERT_GT(predicted, 0.0);
  const double ratio = predicted / measured;
  EXPECT_GT(ratio, 0.1) << "predicted " << predicted << " measured "
                        << measured;
  EXPECT_LT(ratio, 10.0) << "predicted " << predicted << " measured "
                         << measured;
}

}  // namespace
}  // namespace eidb::query
