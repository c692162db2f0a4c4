#include "query/ops/aggregate_op.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/expression.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;

std::int64_t column_int_at(const Column& c, std::size_t i) {
  if (c.type() == TypeId::kDouble)
    throw Error("column " + c.name() + " is not integer-typed");
  return c.int_at(i);
}

namespace {

/// Accumulates one aggregate over an index stream (legacy row-at-a-time
/// path).
struct Accumulator {
  AggOp op;
  bool is_double = false;
  std::uint64_t count = 0;
  std::int64_t isum = 0;
  std::int64_t imin = std::numeric_limits<std::int64_t>::max();
  std::int64_t imax = std::numeric_limits<std::int64_t>::min();
  double dsum = 0;
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();

  void add_int(std::int64_t v) {
    ++count;
    isum += v;
    imin = std::min(imin, v);
    imax = std::max(imax, v);
  }
  void add_double(double v) {
    ++count;
    dsum += v;
    dmin = std::min(dmin, v);
    dmax = std::max(dmax, v);
  }
  [[nodiscard]] storage::Value value() const {
    switch (op) {
      case AggOp::kCount:
        return storage::Value{static_cast<std::int64_t>(count)};
      case AggOp::kSum:
        return is_double ? storage::Value{dsum} : storage::Value{isum};
      case AggOp::kMin:
        if (count == 0) return storage::Value{std::int64_t{0}};
        return is_double ? storage::Value{dmin} : storage::Value{imin};
      case AggOp::kMax:
        if (count == 0) return storage::Value{std::int64_t{0}};
        return is_double ? storage::Value{dmax} : storage::Value{imax};
      case AggOp::kAvg: {
        if (count == 0) return storage::Value{0.0};
        const double sum = is_double ? dsum : static_cast<double>(isum);
        return storage::Value{sum / static_cast<double>(count)};
      }
    }
    return {};
  }
};

QueryResult run_aggregate_vectorized(OpContext& ctx, const LogicalPlan& plan,
                                     const Table& table,
                                     const BitVector& selection) {
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;
  const std::uint64_t selected = selection.count();
  const bool parallel = options.pool != nullptr &&
                        selected >= options.parallel_agg_min_rows;

  // ---- Resolve AggSpecs to shared inputs: each distinct column (or
  // expression) becomes ONE kernel input, and each column is charged to
  // the DRAM ledger exactly once, however many inputs and expression
  // leaves read it in the same pass. --------------------------------------
  //
  // One representation per column per query: composite-key synthesis has
  // no packed kernel and reads the plain arrays, so a column it touches is
  // consumed plain by every consumer — otherwise the once-per-query charge
  // could not match what the pass actually streams. Expression leaves are
  // ordinary consumers: they bind to the same view a direct aggregate of
  // the column would use.
  std::set<std::string> plain_required;
  if (plan.group_by.size() > 1)
    plain_required.insert(plan.group_by.begin(), plan.group_by.end());
  const auto consume_packed = [&](const Column& c) {
    return use_packed(c, options) && plain_required.count(c.name()) == 0;
  };
  // Aggregate inputs consume the packed image when one exists: the pass
  // streams fewer DRAM bytes, and the ledger charges exactly those.
  const auto input_of = [&](const Column& c) {
    if (consume_packed(c)) {
      ctx.charge_column(table, c, true);
      return exec::AggInput::from(c.packed_view());
    }
    ctx.charge_column(table, c, false);
    return agg_input_of(c);
  };

  std::vector<exec::AggInput> inputs;
  std::map<std::string, std::size_t> input_index;
  std::vector<int> spec_input(plan.aggregates.size(), -1);  // -1 = COUNT
  for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
    const AggSpec& a = plan.aggregates[ai];
    if (a.op == AggOp::kCount) continue;  // COUNT needs no input column
    if (a.expr != nullptr) {
      const std::string key = "expr:" + a.expr->to_string();
      const auto it = input_index.find(key);
      if (it == input_index.end()) {
        // Evaluated per selection word from the leaves' views; each leaf
        // column is charged once, at the representation it streams.
        input_index[key] = inputs.size();
        spec_input[ai] = static_cast<int>(inputs.size());
        inputs.push_back(exec::AggInput::from(*a.expr, table, input_of));
      } else {
        spec_input[ai] = static_cast<int>(it->second);
      }
    } else {
      const auto it = input_index.find(a.column);
      if (it == input_index.end()) {
        const Column& c = table.column(a.column);
        input_index[a.column] = inputs.size();
        spec_input[ai] = static_cast<int>(inputs.size());
        inputs.push_back(input_of(c));
      } else {
        spec_input[ai] = static_cast<int>(it->second);
      }
    }
  }

  if (!plan.has_group_by()) {
    // Global aggregates: one pass computes count/sum/min/max for every
    // input; each AggSpec just projects its op out of the shared result.
    std::vector<exec::AggOut> outs;
    if (!inputs.empty())
      outs = parallel ? exec::parallel_multi_aggregate(*options.pool, inputs,
                                                       selection)
                      : exec::multi_aggregate(inputs, selection);
    std::vector<std::string> names;
    names.reserve(plan.aggregates.size());
    for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
    QueryResult result(std::move(names));
    std::vector<storage::Value> row;
    row.reserve(plan.aggregates.size());
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (spec_input[ai] < 0)
        row.emplace_back(static_cast<std::int64_t>(selected));
      else
        row.push_back(agg_out_value(a.op,
                                    outs[static_cast<std::size_t>(
                                        spec_input[ai])]));
    }
    result.add_row(std::move(row));
    stats.work.cpu_cycles +=
        kAggCyclesPerTuple * static_cast<double>(selected) *
        static_cast<double>(std::max<std::size_t>(1, inputs.size()));
    stats.groups = 1;
    return result;
  }

  // ---- Grouped aggregation. Key ranges come from the cached column
  // statistics — no per-query min/max scan over the key columns. ----------
  struct GroupKeyPart {
    const Column* col;
    /// Double key grouped on its dictionary codes (decoded at emit).
    bool double_codes = false;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::int64_t domain = 1;  // max - min + 1, saturated by ColumnStats
    std::int64_t stride = 1;
    std::uint64_t distinct = 0;
  };
  std::vector<GroupKeyPart> parts;
  const std::size_t n_rows = table.row_count();
  // Composite keys are in plain_required (synthesized from the plain
  // arrays); a single packed key column is consumed in place.
  for (const std::string& name : plan.group_by) {
    const Column& col = table.column(name);
    GroupKeyPart part;
    part.col = &col;
    if (col.type() == TypeId::kDouble) {
      if (!col.has_double_dictionary())
        throw Error("cannot group by double column " + col.name() +
                    " (no ordered dictionary: column contains NaN)");
      // Group on the int32 codes — dense range [0, dict size), exact
      // distinct count — and decode from the double dictionary at emit.
      // The pass streams the 4-byte code array, so that is the charge
      // (unless another consumer already billed the plain width).
      ctx.charge_column_bytes(table, col,
                              4.0 * static_cast<double>(col.size()));
      const auto dsize =
          static_cast<std::int64_t>(col.double_dictionary().size());
      part.double_codes = true;
      part.min = 0;
      part.max = std::max<std::int64_t>(0, dsize - 1);
      part.domain = std::max<std::int64_t>(1, dsize);
      part.distinct = static_cast<std::uint64_t>(dsize);
      parts.push_back(part);
      continue;
    }
    ctx.charge_column(table, col, consume_packed(col));
    const storage::ColumnStats& cs = col.stats();
    part.min = cs.rows == 0 ? 0 : cs.min;
    part.max = cs.rows == 0 ? 0 : cs.max;
    part.domain = std::max<std::int64_t>(1, cs.domain());
    part.distinct = cs.distinct;
    parts.push_back(part);
  }

  exec::GroupedAggs grouped;
  const bool composite = parts.size() > 1;
  if (!composite) {
    // Single key column consumed in place (int32/codes stay 32-bit;
    // encoded keys stay packed and decode per selected row).
    const GroupKeyPart& part = parts.front();
    const exec::KeyRange range{true, part.min, part.max, part.distinct};
    if (consume_packed(*part.col)) {
      const storage::PackedView keys = part.col->packed_view();
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate_packed(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate_packed(keys, inputs,
                                                           selection, range);
    } else if (part.double_codes) {
      const auto keys = part.col->double_codes();
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate32(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate32(keys, inputs, selection,
                                                      range);
    } else if (part.col->type() == TypeId::kInt64) {
      const auto keys = part.col->int64_data();
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate(keys, inputs, selection,
                                                    range);
    } else {
      const auto keys = part.col->int32_data();  // int32 or string codes
      grouped = parallel
                    ? exec::parallel_grouped_multi_aggregate32(
                          *options.pool, keys, inputs, selection, range)
                    : exec::grouped_multi_aggregate32(keys, inputs, selection,
                                                      range);
    }
  } else {
    // Strides right-to-left; guard against composite-domain overflow.
    std::int64_t total = 1;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      it->stride = total;
      if (it->domain > (std::int64_t{1} << 62) / total)
        throw Error("composite group-by domain too large");
      total *= it->domain;
    }
    // Synthesize the composite keys into the reusable scratch buffer
    // (one sequential pass per key column).
    ctx.key_scratch.assign(n_rows, 0);
    for (const GroupKeyPart& part : parts) {
      if (part.double_codes) {
        const auto data = part.col->double_codes();
        for (std::size_t i = 0; i < n_rows; ++i)
          ctx.key_scratch[i] += (data[i] - part.min) * part.stride;
      } else if (part.col->type() == TypeId::kInt64) {
        const auto data = part.col->int64_data();
        for (std::size_t i = 0; i < n_rows; ++i)
          ctx.key_scratch[i] += (data[i] - part.min) * part.stride;
      } else {
        const auto data = part.col->int32_data();
        for (std::size_t i = 0; i < n_rows; ++i)
          ctx.key_scratch[i] += (data[i] - part.min) * part.stride;
      }
    }
    const std::span<const std::int64_t> keys(ctx.key_scratch.data(), n_rows);
    const exec::KeyRange range{true, 0, total - 1};
    grouped = parallel ? exec::parallel_grouped_multi_aggregate(
                             *options.pool, keys, inputs, selection, range)
                       : exec::grouped_multi_aggregate(keys, inputs,
                                                       selection, range);
  }
  stats.groups = grouped.group_count();
  stats.work.cpu_cycles +=
      kGroupCyclesPerTuple * static_cast<double>(selected) +
      kAggCyclesPerTuple * static_cast<double>(selected) *
          static_cast<double>(inputs.size());

  // String group keys late-materialize at emit: the emitted groups gather
  // from the dictionary payload, and that traffic is charged (bounded by
  // one full dictionary read).
  for (const GroupKeyPart& part : parts)
    if (part.col->type() == TypeId::kString)
      ctx.charge_dict_gather(table, *part.col, grouped.group_count());

  std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  QueryResult result(std::move(names));

  for (std::size_t g = 0; g < grouped.group_count(); ++g) {
    std::vector<storage::Value> row;
    row.reserve(parts.size() + plan.aggregates.size());
    if (!composite) {
      const GroupKeyPart& part = parts.front();
      if (part.col->type() == TypeId::kString)
        row.emplace_back(part.col->dictionary().at(
            static_cast<std::int32_t>(grouped.keys[g])));
      else if (part.double_codes)
        row.emplace_back(part.col->double_dictionary().at(
            static_cast<std::int32_t>(grouped.keys[g])));
      else
        row.emplace_back(grouped.keys[g]);
    } else {
      // Decode the composite key back into per-column values.
      for (const GroupKeyPart& part : parts) {
        const std::int64_t component =
            (grouped.keys[g] / part.stride) % part.domain + part.min;
        if (part.col->type() == TypeId::kString)
          row.emplace_back(part.col->dictionary().at(
              static_cast<std::int32_t>(component)));
        else if (part.double_codes)
          row.emplace_back(part.col->double_dictionary().at(
              static_cast<std::int32_t>(component)));
        else
          row.emplace_back(component);
      }
    }
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (spec_input[ai] < 0) {
        row.emplace_back(static_cast<std::int64_t>(grouped.counts[g]));
        continue;
      }
      const auto j = static_cast<std::size_t>(spec_input[ai]);
      exec::AggOut out;
      out.is_double = inputs[j].is_double();
      if (out.is_double)
        out.d = grouped.dout[j][g];
      else
        out.i = grouped.iout[j][g];
      row.push_back(agg_out_value(a.op, out));
    }
    result.add_row(std::move(row));
  }
  return result;
}

QueryResult run_aggregate_rows(OpContext& ctx, const LogicalPlan& plan,
                               const Table& table,
                               const BitVector& selection) {
  ExecStats& stats = ctx.stats;
  const std::uint64_t selected = selection.count();

  if (!plan.has_group_by()) {
    // Global aggregates.
    std::vector<std::string> names;
    names.reserve(plan.aggregates.size());
    for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
    QueryResult result(std::move(names));
    std::vector<storage::Value> row;
    for (const AggSpec& a : plan.aggregates) {
      Accumulator acc{a.op};
      if (a.op == AggOp::kCount) {
        acc.count = selected;
      } else if (a.expr != nullptr) {
        std::vector<std::string> referenced;
        a.expr->collect_columns(referenced);
        for (const std::string& name : referenced)
          ctx.charge_scan(table, table.column(name), false);
        std::vector<double> evaluated;
        exec::evaluate_expression(*a.expr, table, evaluated);
        acc.is_double = true;
        selection.for_each_set(
            [&](std::size_t i) { acc.add_double(evaluated[i]); });
      } else {
        const Column& c = table.column(a.column);
        ctx.charge_scan(table, c, false);
        if (c.type() == TypeId::kDouble) {
          acc.is_double = true;
          const auto data = c.double_data();
          selection.for_each_set(
              [&](std::size_t i) { acc.add_double(data[i]); });
        } else {
          selection.for_each_set(
              [&](std::size_t i) { acc.add_int(column_int_at(c, i)); });
        }
      }
      row.push_back(acc.value());
      stats.work.cpu_cycles +=
          kAggCyclesPerTuple * static_cast<double>(selected);
    }
    result.add_row(std::move(row));
    stats.groups = 1;
    return result;
  }

  // Grouped aggregation over one or more key columns (int32 / int64 /
  // string codes). A composite non-negative int64 key is synthesized from
  // the columns' value ranges (stride layout), so every grouping runs on
  // the int64 kernels and decodes back to column values for output.
  struct GroupKeyPart {
    const Column* col;
    /// Double key grouped on its dictionary codes (decoded at emit).
    bool double_codes = false;
    std::int64_t min = 0;
    std::int64_t domain = 1;  // max - min + 1
    std::int64_t stride = 1;
  };
  std::vector<GroupKeyPart> parts;
  const std::size_t n_rows = table.row_count();
  for (const std::string& name : plan.group_by) {
    const Column& col = table.column(name);
    ctx.charge_scan(table, col, false);
    if (col.type() == TypeId::kDouble && !col.has_double_dictionary())
      throw Error("cannot group by double column " + col.name() +
                  " (no ordered dictionary: column contains NaN)");
    GroupKeyPart part;
    part.col = &col;
    part.double_codes = col.type() == TypeId::kDouble;
    std::int64_t mn = 0, mx = 0;
    if (n_rows > 0) {
      // Deliberately rescans the column (the "before" the stats cache
      // eliminates in the vectorized path).
      if (part.double_codes) {
        const auto data = col.double_codes();
        mn = mx = data[0];
        for (const std::int32_t v : data) {
          mn = std::min<std::int64_t>(mn, v);
          mx = std::max<std::int64_t>(mx, v);
        }
      } else if (col.type() == TypeId::kInt64) {
        const auto data = col.int64_data();
        mn = mx = data[0];
        for (const std::int64_t v : data) {
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
      } else {
        const auto data = col.int32_data();  // int32 or string codes
        mn = mx = data[0];
        for (const std::int32_t v : data) {
          mn = std::min<std::int64_t>(mn, v);
          mx = std::max<std::int64_t>(mx, v);
        }
      }
    }
    part.min = mn;
    part.domain = mx - mn + 1;
    parts.push_back(part);
  }
  // Strides right-to-left; guard against composite-domain overflow.
  std::int64_t total = 1;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    it->stride = total;
    if (it->domain > (std::int64_t{1} << 62) / total)
      throw Error("composite group-by domain too large");
    total *= it->domain;
  }
  // Synthesize the composite keys.
  std::vector<std::int64_t> synth(n_rows, 0);
  for (const GroupKeyPart& part : parts) {
    if (part.double_codes) {
      const auto data = part.col->double_codes();
      for (std::size_t i = 0; i < n_rows; ++i)
        synth[i] += (data[i] - part.min) * part.stride;
    } else if (part.col->type() == TypeId::kInt64) {
      const auto data = part.col->int64_data();
      for (std::size_t i = 0; i < n_rows; ++i)
        synth[i] += (data[i] - part.min) * part.stride;
    } else {
      const auto data = part.col->int32_data();
      for (std::size_t i = 0; i < n_rows; ++i)
        synth[i] += (data[i] - part.min) * part.stride;
    }
  }
  const std::span<const std::int64_t> group_keys(synth);

  std::vector<std::string> names(plan.group_by.begin(), plan.group_by.end());
  for (const AggSpec& a : plan.aggregates) names.push_back(agg_column_name(a));
  QueryResult result(std::move(names));

  // Resolve each aggregate into per-key accumulation via the exec kernels.
  // Strategy: for the first aggregate we compute the group layout (sorted
  // keys); subsequent aggregates are joined by key order. To keep a single
  // pass per aggregate we rely on group_aggregate* returning key-sorted rows.
  struct GroupedOut {
    std::vector<exec::GroupRow> irows;
    std::vector<exec::GroupRowD> drows;
    bool is_double = false;
  };
  std::vector<GroupedOut> per_agg(plan.aggregates.size());

  for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
    const AggSpec& a = plan.aggregates[ai];
    GroupedOut& out = per_agg[ai];
    if (a.expr != nullptr && a.op != AggOp::kCount) {
      // Expression input: evaluate once, group as doubles.
      std::vector<std::string> referenced;
      a.expr->collect_columns(referenced);
      for (const std::string& name : referenced)
        ctx.charge_scan(table, table.column(name), false);
      std::vector<double> evaluated;
      exec::evaluate_expression(*a.expr, table, evaluated);
      out.is_double = true;
      out.drows = exec::group_aggregate_d(group_keys, evaluated, selection);
      stats.work.cpu_cycles +=
          kGroupCyclesPerTuple * static_cast<double>(selected);
      continue;
    }
    const std::string& value_col_name =
        a.op == AggOp::kCount ? plan.group_by.front() : a.column;
    const Column& val_col = table.column(value_col_name);
    if (a.op != AggOp::kCount) ctx.charge_scan(table, val_col, false);
    if (val_col.type() == TypeId::kDouble) {
      out.is_double = true;
      out.drows = exec::group_aggregate_d(group_keys, val_col.double_data(),
                                          selection);
    } else {
      // Integer (or count over the synthesized key itself).
      std::vector<std::int64_t> widened;
      std::span<const std::int64_t> values;
      if (a.op == AggOp::kCount) {
        values = group_keys;  // any column works for counting
      } else if (val_col.type() == TypeId::kInt64) {
        values = val_col.int64_data();
      } else {
        widened.reserve(val_col.size());
        for (std::size_t i = 0; i < val_col.size(); ++i)
          widened.push_back(column_int_at(val_col, i));
        values = widened;
      }
      out.irows = exec::group_aggregate(group_keys, values, selection);
    }
    stats.work.cpu_cycles +=
        kGroupCyclesPerTuple * static_cast<double>(selected);
  }

  // All aggregates share the same key set; take it from the first.
  std::vector<std::int64_t> keys;
  if (!per_agg.empty()) {
    if (per_agg[0].is_double)
      for (const auto& r : per_agg[0].drows) keys.push_back(r.key);
    else
      for (const auto& r : per_agg[0].irows) keys.push_back(r.key);
  }
  stats.groups = keys.size();

  for (std::size_t g = 0; g < keys.size(); ++g) {
    std::vector<storage::Value> row;
    row.reserve(parts.size() + plan.aggregates.size());
    // Decode the composite key back into per-column values.
    for (const GroupKeyPart& part : parts) {
      const std::int64_t component =
          (keys[g] / part.stride) % part.domain + part.min;
      if (part.col->type() == TypeId::kString)
        row.emplace_back(part.col->dictionary().at(
            static_cast<std::int32_t>(component)));
      else if (part.double_codes)
        row.emplace_back(part.col->double_dictionary().at(
            static_cast<std::int32_t>(component)));
      else
        row.emplace_back(component);
    }
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      const GroupedOut& out = per_agg[ai];
      if (out.is_double) {
        const exec::AggResultD& r = out.drows[g].agg;
        switch (a.op) {
          case AggOp::kCount:
            row.emplace_back(static_cast<std::int64_t>(r.count));
            break;
          case AggOp::kSum:
            row.emplace_back(r.sum);
            break;
          case AggOp::kMin:
            row.emplace_back(r.min);
            break;
          case AggOp::kMax:
            row.emplace_back(r.max);
            break;
          case AggOp::kAvg:
            row.emplace_back(r.avg());
            break;
        }
      } else {
        const exec::AggResult& r = out.irows[g].agg;
        switch (a.op) {
          case AggOp::kCount:
            row.emplace_back(static_cast<std::int64_t>(r.count));
            break;
          case AggOp::kSum:
            row.emplace_back(r.sum);
            break;
          case AggOp::kMin:
            row.emplace_back(r.min);
            break;
          case AggOp::kMax:
            row.emplace_back(r.max);
            break;
          case AggOp::kAvg:
            row.emplace_back(r.avg());
            break;
        }
      }
    }
    result.add_row(std::move(row));
  }
  return result;
}

}  // namespace

exec::AggInput agg_input_of(const Column& c) {
  switch (c.type()) {
    case TypeId::kInt32:
      return exec::AggInput::from(c.int32_data());
    case TypeId::kString:
      return exec::AggInput::from(c.codes());
    case TypeId::kInt64:
      return exec::AggInput::from(c.int64_data());
    case TypeId::kDouble:
      return exec::AggInput::from(c.double_data());
  }
  throw Error("invalid column type");
}

storage::Value agg_out_value(AggOp op, const exec::AggOut& out) {
  if (out.is_double) {
    const exec::AggResultD& r = out.d;
    switch (op) {
      case AggOp::kCount:
        return storage::Value{static_cast<std::int64_t>(r.count)};
      case AggOp::kSum:
        return storage::Value{r.sum};
      case AggOp::kMin:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.min};
      case AggOp::kMax:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.max};
      case AggOp::kAvg:
        return storage::Value{r.avg()};
    }
  } else {
    const exec::AggResult& r = out.i;
    switch (op) {
      case AggOp::kCount:
        return storage::Value{static_cast<std::int64_t>(r.count)};
      case AggOp::kSum:
        return storage::Value{r.sum};
      case AggOp::kMin:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.min};
      case AggOp::kMax:
        if (r.count == 0) return storage::Value{std::int64_t{0}};
        return storage::Value{r.max};
      case AggOp::kAvg:
        return storage::Value{r.avg()};
    }
  }
  return {};
}

QueryResult run_aggregate(OpContext& ctx, const LogicalPlan& plan,
                          const Table& table, const BitVector& selection) {
  OperatorScope scope(ctx.stats,
                      plan.has_group_by() ? "group-aggregate" : "aggregate");
  if (ctx.options.agg_path == AggPath::kRowAtATime)
    return run_aggregate_rows(ctx, plan, table, selection);
  return run_aggregate_vectorized(ctx, plan, table, selection);
}

}  // namespace eidb::query::ops
