// Aggregation operator over a base-table selection: the single-pass
// block-vectorized pipeline. Extracted from the executor monolith; the
// shared typed-input and result-emission helpers are reused by the join
// operator's aggregation sink.
#pragma once

#include "exec/vector_agg.hpp"
#include "query/ops/op_context.hpp"
#include "query/plan.hpp"
#include "storage/table.hpp"
#include "util/bitvector.hpp"

namespace eidb::query::ops {

/// Typed kernel view of an integer-or-double column; dictionary and int32
/// columns are consumed as int32 directly (no widened copy).
[[nodiscard]] exec::AggInput agg_input_of(const storage::Column& c);

/// Column::int_at with a typed error for double columns (the join
/// operator's sort-key gathers).
[[nodiscard]] std::int64_t column_int_at(const storage::Column& c,
                                         std::size_t i);

/// Value of one aggregate op from a single-pass AggOut, with zeroed
/// empty-input semantics (min/max of nothing = 0).
[[nodiscard]] storage::Value agg_out_value(AggOp op, const exec::AggOut& out);

/// Runs the plan's aggregates (global or grouped) over the selection in
/// one pass per input column.
[[nodiscard]] QueryResult run_aggregate(OpContext& ctx,
                                        const LogicalPlan& plan,
                                        const storage::Table& table,
                                        const BitVector& selection);

}  // namespace eidb::query::ops
