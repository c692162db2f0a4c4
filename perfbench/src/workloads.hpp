// The benchmark's three workloads. Each one generates its inputs from the
// seed, sets the engine up several times (setup_s is the median), measures
// for the requested seconds, checks every answer against the independent
// reference, and records its metrics.
//
// Untraced runs record the end-to-end metrics; traced runs first repeat a
// shorter untraced pass (the overhead baseline), then record spans and the
// per-layer metrics. Every run drives the engine only through its public
// entry points (core::Database::run_sql / run, query::parse_sql,
// query::compile_plan, server::QueryService::submit) with engine defaults:
// no pinned scan variant, zone maps, encodings or pool sizes.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// star-mixed only: offered requests per second; 0 keeps the workload's
  /// own rate. For saturation sweeps (sweep.py), not for gated runs.
  double rate = 0;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any answer differed from the reference or the tenant
  /// bills did not reconcile with the energy ledger.
  bool correct = true;
  std::string meter_source;
};

/// Runs `options.workload`; throws std::invalid_argument for an unknown
/// name.
void run_workload(const Options& options, Outcome& out);

/// The workload names, in BENCHMARK.json order.
inline constexpr const char* kWorkloads[] = {"star-solo", "scan-burst",
                                             "star-mixed"};

}  // namespace perfbench
