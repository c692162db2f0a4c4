// Metric registry, summary statistics and the result line.
//
// Every metric a run measures is printed as `metric <name> <value> <unit>`
// so one command shows all of them. The last line of standard output is the
// JSON result object, holding exactly the end-to-end metrics (untraced
// run) or exactly the per-layer metrics (traced run) that BENCHMARK.json
// lists; the lists below must equal that file (tests/test_bench.py).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Gated end-to-end metrics: printed by every workload's untraced run.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"qps", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"j_per_query", "J"},
};

/// Per-layer metrics: printed by every workload's traced run (0 where the
/// layer does no work on that workload, e.g. server.* on star-solo).
inline constexpr MetricSpec kPerLayer[] = {
    {"query.parse_us", "us"},
    {"query.compile_us", "us"},
    {"op.scan_ms", "ms"},
    {"op.join_ms", "ms"},
    {"op.aggregate_ms", "ms"},
    {"op.sort_ms", "ms"},
    {"op.materialize_ms", "ms"},
    {"exec.scan_grows_per_s", "Grows/s"},
    {"exec.tuples_scanned_per_query", "count"},
    {"exec.tuples_selected_per_query", "count"},
    {"storage.dram_mb_per_query", "MB"},
    {"storage.dram_saved_mb_per_query", "MB"},
    {"storage.load_s", "s"},
    {"storage.bytes_per_user_byte", "ratio"},
    {"core.overhead_ms", "ms"},
    {"sched.cpu_util", "cores"},
    {"sched.cpu_ms_per_query", "ms"},
    {"query.governor_cores", "cores"},
    {"server.cores_granted_frac", "ratio"},
    {"server.queue_ms", "ms"},
    {"server.exec_ms", "ms"},
    {"server.batch_size", "count"},
    {"server.shared_frac", "ratio"},
    {"server.shared_members_mean", "count"},
    {"server.backlog_end", "count"},
    {"opt.predict_ratio", "ratio"},
    {"energy.metered_zero_frac", "ratio"},
    {"energy.ledger_gap_j", "J"},
    {"gen.late_ms_p99", "ms"},
    {"gen.late_ms_max", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Process CPU seconds so far (all threads).
[[nodiscard]] double process_cpu_s();

class Metrics {
 public:
  /// Records (or overwrites) one metric and prints its `metric` line.
  void set(const std::string& name, double value, const std::string& unit);
  /// As above, with the unit listed for `name` in kEndToEnd / kPerLayer.
  void set(const std::string& name, double value);
  /// The result object over `specs`: {"correct", "attempted", "failed",
  /// "metrics"}. Throws when a listed metric was never set.
  template <std::size_t N>
  [[nodiscard]] std::string result_json(const MetricSpec (&specs)[N],
                                        bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const {
    return result_json(specs, N, correct, attempted, failed);
  }

 private:
  [[nodiscard]] std::string result_json(const MetricSpec* specs,
                                        std::size_t n, bool correct,
                                        std::uint64_t attempted,
                                        std::uint64_t failed) const;
  std::map<std::string, double> values_;
};

/// One-line JSON host + build fingerprint: CPU count and brand, runtime CPU
/// features against the ISA macros compiled into this build, build type,
/// compiler, and the engine's meter source.
[[nodiscard]] std::string fingerprint(const std::string& meter_source);

}  // namespace perfbench
