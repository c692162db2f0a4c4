// The physical plan layer: a LogicalPlan compiled into an explicit
// operator pipeline (scan+filter → join* → aggregate | project →
// sort/top-k → limit) with every physical decision made up front and
// visible — join order (opt::join_order over a statistics-derived
// JoinGraph), per-step join arm (opt::CostModel), aggregation path, and
// sort strategy (full sort vs heap top-k). The executor runs the compiled
// plan; EXPLAIN prints it. The paper's framing: the engine owes the user
// the cheapest-in-joules *whole-plan* strategy, not a per-kernel choice —
// this is where that strategy is assembled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "opt/cost_model.hpp"
#include "query/executor.hpp"
#include "query/plan.hpp"
#include "query/plan_governor.hpp"
#include "storage/table.hpp"

namespace eidb::query {

/// One compiled equi-join step. Steps execute in vector order (the
/// planner's order, not the SQL declaration order): each step builds a
/// table over its (filtered) build side and probes it with a key gathered
/// from `source_side` of the running match tuple.
/// Key class of one join step: integer keys compare raw values; string
/// and double keys compare int32 dictionary codes, with the build side's
/// codes translated into the probe side's code domain at build time
/// (Dictionary::remap_to — missing keys map to -1 and never match).
enum class JoinKeyType : std::uint8_t { kInt, kString, kDouble };

[[nodiscard]] std::string join_key_type_name(JoinKeyType t);

struct PhysicalJoinStep {
  std::size_t logical_index = 0;  ///< Index into LogicalPlan::joins.
  opt::JoinArm arm = opt::JoinArm::kHashJoin;
  /// Side carrying this step's probe key: 0 = the FROM table, s > 0 = the
  /// build table of executed step s-1 (a snowflake reference).
  std::size_t source_side = 0;
  std::string source_key;  ///< Bare probe-key column name on that side.
  double est_build_rows = 0;  ///< Predicted selected build rows.
  double est_rows_out = 0;    ///< Predicted cumulative matches after this step.
  JoinKeyType key_type = JoinKeyType::kInt;
  /// Build-dictionary entries the cross-dictionary remap translates
  /// (string/double keys only; 0 for integer keys).
  std::size_t remap_entries = 0;
};

/// How ORDER BY (if any) is executed.
enum class SortStrategy : std::uint8_t {
  kNone,      ///< No ORDER BY.
  kFullSort,  ///< Full sort of the qualifying rows / result rows.
  kTopK,      ///< Heap-based partial sort bounded by LIMIT.
};

/// How shard results reach the coordinator in a partition-aware plan.
enum class DistMode : std::uint8_t {
  kNone,  ///< Single-node plan (shard_count == 0 or LIMIT 0 short-circuit).
  /// Shards run a rewritten partial-aggregate plan (leading COUNT, AVG →
  /// SUM, sort/limit dropped) on their shard tables; the coordinator
  /// merges the exactly-decomposable partials in the value domain. Only
  /// chosen when every aggregate provably merges bit-exactly (COUNT, and
  /// integer-input SUM/MIN/MAX/AVG, double MIN/MAX); anything else —
  /// double SUM/AVG (floating-point addition is not associative),
  /// expression aggregates, string-code inputs (codes are shard-local) —
  /// falls back to kGather.
  kPartialMerge,
  /// Shards run only scan+filter and ship their selected global row ids;
  /// the coordinator ORs them into a selection over the original table
  /// and runs the normal single-node pipeline — bit-identical by
  /// construction for every plan shape.
  kGather,
};

[[nodiscard]] std::string dist_mode_name(DistMode m);

/// How one join step's build (dimension) side reaches the shards. The
/// engine shares dimensions in-process (only the wire is simulated —
/// DESIGN.md §5); the strategy decides the *modeled* wire volume the
/// cost model's network arm charges through net::Cluster.
enum class ExchangeStrategy : std::uint8_t {
  kBroadcast,    ///< Ship the whole build side to every other shard.
  kRepartition,  ///< Hash-repartition both sides on the join key.
};

[[nodiscard]] std::string exchange_strategy_name(ExchangeStrategy s);

/// One join step's dimension-exchange decision (aligned with
/// PhysicalPlan::joins).
struct DistJoinExchange {
  ExchangeStrategy strategy = ExchangeStrategy::kBroadcast;
  double est_bytes = 0;  ///< Modeled wire bytes of the chosen strategy.
};

/// The partition-aware half of a compiled plan: how the plan fans out
/// over the FROM table's hash-partition layer and what the exchanges are
/// predicted to ship. Inactive (kNone) for single-node plans.
struct DistPlan {
  DistMode mode = DistMode::kNone;
  std::size_t shard_count = 0;
  std::string partition_key;  ///< The partition layer's hash key column.
  /// Per-join-step dimension exchange, aligned with PhysicalPlan::joins.
  std::vector<DistJoinExchange> joins;
  /// Modeled bytes of the shard → coordinator result exchange (partial
  /// rows or gathered row ids).
  double est_result_bytes = 0;

  [[nodiscard]] bool active() const { return mode != DistMode::kNone; }
  /// Total modeled wire bytes (the governor's network-arm input).
  [[nodiscard]] double est_wire_bytes() const {
    double total = est_result_bytes;
    for (const DistJoinExchange& j : joins) total += j.est_bytes;
    return total;
  }
};

struct PhysicalPlan {
  LogicalPlan logical;
  /// Join steps in execution order (empty = no join).
  std::vector<PhysicalJoinStep> joins;
  SortStrategy sort = SortStrategy::kNone;
  /// True when the sort operator runs over materialized result rows
  /// (aggregate output); false = row-id sort over a table column.
  bool sort_on_result = false;
  double est_probe_rows = 0;  ///< Predicted selected FROM-table rows.
  /// Join-order decision provenance: "dp" / "greedy" (multi-way), "" when
  /// fewer than two joins left nothing to order.
  std::string join_order_algorithm;
  double join_order_cost = 0;  ///< C_out of the chosen order.
  /// The plan governor's cores × P-state decision for this query (only
  /// when ExecOptions::governor is set; see query/plan_governor.hpp).
  GovernorChoice governor;
  /// Partition-aware execution plan (active when ExecOptions::shard_count
  /// > 0 and the FROM table carries a matching partition layer).
  DistPlan dist;
  /// Shared-scan fusion info, set by the batch runner
  /// (core::Database::run_batch) when this plan's FROM-table scan was
  /// fused with other members of a coalesced batch into one pass
  /// (query/shared_scan). members <= 1 = not shared.
  struct SharedScanInfo {
    std::uint64_t group = 0;
    std::size_t members = 0;
  };
  SharedScanInfo shared;

  [[nodiscard]] std::size_t side_count() const { return joins.size() + 1; }

  /// Multi-line operator tree, sink first (the EXPLAIN format; see
  /// docs/executor_pipeline.md).
  [[nodiscard]] std::string explain() const;
};

/// Compiles `plan` against the catalog's cached statistics. Validates the
/// plan shape (validate_join_plan and column/type checks on join keys),
/// orders multi-way joins via opt::join_order, and picks each step's
/// physical arm via opt::CostModel. Throws eidb::Error on invalid plans.
[[nodiscard]] PhysicalPlan compile_plan(const storage::Catalog& catalog,
                                        const LogicalPlan& plan,
                                        const ExecOptions& options = {});

}  // namespace eidb::query
