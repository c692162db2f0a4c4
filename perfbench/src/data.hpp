// Seeded input generators for the benchmark workloads.
//
// Every table the benchmark loads is made here from the run's --seed, with
// the benchmark's own generator (splitmix64), so the same seed gives
// byte-identical inputs on every host and build. The engine only ever
// receives the finished columns; the reference checker (reference.hpp)
// reads the same columns with plain loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eidb::core {
class Database;
}  // namespace eidb::core

namespace perfbench {

/// splitmix64: tiny, fully specified, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// ---- star schema (star-solo, star-mixed) -----------------------------------
//
// W1's SSB-flavoured star: a date-clustered fact table `lineorder` with
// the `customer`, `dates` and string-keyed `priorities` dimensions, same
// shapes and value domains as bench/bench_w1_star_schema.cpp, seeded.
//
// Size: 4M fact rows × 5 int64 columns + a dictionary-coded string column
// ≈ 190 MB plain. The engine's automatic packed encodings shrink what a
// scan reads to ≈ 16% of that (storage.bytes_per_user_byte), and a query
// moves ≈ 38 MB of modelled DRAM traffic: far beyond the 2 MiB per-core L2
// (8 MiB over the 4 cores of the measuring host), though within the large
// L3 that host's VM reports (300 MiB). The dimensions are small: customer
// 30k rows (≈ 0.7 MB), dates 2556 rows, priorities 5 rows.
inline constexpr std::size_t kStarFactRows = 4'000'000;
inline constexpr std::int64_t kDates = 2556;  // 7 years of days
inline constexpr std::int64_t kCustomers = 30'000;
inline constexpr const char* kRegions[] = {"africa", "america", "asia",
                                           "europe", "mideast"};
inline constexpr const char* kSegments[] = {"auto", "building", "furniture",
                                            "machinery"};
/// Fact-side priorities; "rush" has no dimension row, and the dimension's
/// "urgent" has no fact rows, so the Q8 join misses on both sides.
inline constexpr const char* kFactPrios[] = {"bulk", "high", "low", "mid",
                                             "rush"};

struct StarData {
  // lineorder
  std::vector<std::int64_t> orderdate, custkey, quantity, discount, revenue;
  std::vector<std::string> prio;
  // customer (custkey = row index)
  std::vector<std::int64_t> c_custkey;
  std::vector<std::string> c_region, c_segment;
  // dates (datekey = row index)
  std::vector<std::int64_t> d_datekey, d_year;
  // priorities
  std::vector<std::string> p_prio;
  std::vector<std::int64_t> p_factor;
};

[[nodiscard]] StarData make_star(std::uint64_t seed,
                                 std::size_t fact_rows = kStarFactRows);
/// Creates and fills the four star tables in `db` (engine defaults:
/// automatic encodings, no pinned zone maps or partitions).
void load_star(eidb::core::Database& db, const StarData& data);

// ---- events (scan-burst) ---------------------------------------------------
//
// One small fact table for the service workload: 200k rows × 2 int64
// columns ≈ 3.2 MB plain; the packed images a scan reads (10-bit k, 20-bit
// v) are ≈ 0.75 MB, resident in one core's 2 MiB L2. Per-query engine work
// is tens of microseconds, so the serving tier (admission, queue,
// coalescing window, shared-scan fusion, dispatch, settlement) sets the
// latency. `k` is the shared predicate column every request filters on,
// so coalesced requests are fusable.
inline constexpr std::size_t kEventRows = 200'000;
inline constexpr std::int64_t kEventKeys = 1000;  // k in [0, 1000)

struct EventsData {
  std::vector<std::int64_t> k, v;
};

[[nodiscard]] EventsData make_events(std::uint64_t seed,
                                     std::size_t rows = kEventRows);
void load_events(eidb::core::Database& db, const EventsData& data);

/// FNV-1a over every generated value (determinism checks).
[[nodiscard]] std::uint64_t digest(const StarData& data);
[[nodiscard]] std::uint64_t digest(const EventsData& data);

}  // namespace perfbench
