#include "exec/vector_agg.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <type_traits>

#include "exec/hash_table.hpp"
#include "util/assert.hpp"

namespace eidb::exec {

namespace {

// Serial dense slots come from the shared kDenseDomainLimit
// (exec/aggregate.hpp); per-worker dense accumulators cap lower.
constexpr std::int64_t kParallelDenseLimit = 1 << 16;

// ---------------------------------------------------------------------------
// Global (ungrouped) multi-aggregate.
// ---------------------------------------------------------------------------

/// Per-input running accumulator; integer inputs (int32/int64) promote into
/// the int64 fields, doubles into the double fields.
struct InputAcc {
  std::int64_t isum = 0;
  std::int64_t imin = std::numeric_limits<std::int64_t>::max();
  std::int64_t imax = std::numeric_limits<std::int64_t>::min();
  double dsum = 0;
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
};

/// Branch-free full-word accumulate: 64 consecutive rows, no bit tests —
/// the plain loops autovectorize (SIMD) on any target.
template <typename T, typename S>
void acc_word_full(const T* data, std::size_t base, S& sum, S& mn, S& mx) {
  using L = std::numeric_limits<T>;
  S s = 0;
  // Seeded like the running accumulators (±inf for doubles), so a NaN row
  // is skipped by min/max here exactly as acc_word_bits skips it.
  T lo = L::has_infinity ? L::infinity() : L::max();
  T hi = L::has_infinity ? -L::infinity() : L::lowest();
  for (std::size_t j = 0; j < 64; ++j) {
    const T v = data[base + j];
    s += static_cast<S>(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  sum += s;
  mn = std::min(mn, static_cast<S>(lo));
  mx = std::max(mx, static_cast<S>(hi));
}

/// Partial-word accumulate: walk set bits (count-trailing-zeros).
template <typename T, typename S>
void acc_word_bits(const T* data, std::size_t base, std::uint64_t bits,
                   S& sum, S& mn, S& mx) {
  while (bits != 0) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(bits));
    bits &= bits - 1;
    const S v = static_cast<S>(data[base + j]);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
}

/// Partial words with at least 16 selected rows amortize one vectorizable
/// unpack of their whole 64-value block; sparser ones pay the cheaper
/// per-row random access. The block must lie inside the column.
bool unpack_whole_block(const storage::PackedView& pv, std::size_t base,
                        std::size_t selected) {
  return selected >= 16 && base + 64 <= pv.count;
}

/// Packed-input accumulate: full words unpack one 64-value block into a
/// stack buffer (the only memory touched is the packed image); partial
/// words random-access the surviving bits.
void acc_word_packed(const storage::PackedView& pv, InputAcc& acc,
                     std::size_t base, std::uint64_t bits, bool full) {
  if (full) {
    alignas(64) std::uint64_t buf[64];
    storage::bitunpack_block64(pv.words, pv.bits, base, buf);
    std::int64_t s = 0;
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (unsigned j = 0; j < 64; ++j) {
      const std::int64_t v =
          pv.reference + static_cast<std::int64_t>(buf[j]);
      s += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    acc.isum += s;
    acc.imin = std::min(acc.imin, lo);
    acc.imax = std::max(acc.imax, hi);
    return;
  }
  alignas(64) std::uint64_t buf[64];
  const bool unpack_block = unpack_whole_block(
      pv, base, static_cast<std::size_t>(__builtin_popcountll(bits)));
  if (unpack_block) storage::bitunpack_block64(pv.words, pv.bits, base, buf);
  while (bits != 0) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(bits));
    bits &= bits - 1;
    const std::int64_t v =
        unpack_block ? pv.reference + static_cast<std::int64_t>(buf[j])
                     : pv.value_at(base + j);
    acc.isum += v;
    acc.imin = std::min(acc.imin, v);
    acc.imax = std::max(acc.imax, v);
  }
}

// ---------------------------------------------------------------------------
// Expression inputs: evaluated per 64-row block on an evaluation stack of
// 64-lane slots. `lane == nullptr` means every lane of a full selection
// word (branch-free loops); otherwise only the k selected lanes
// lane[0..k) are loaded and combined.
// ---------------------------------------------------------------------------

template <typename T>
void load_plain(const T* data, std::size_t base, const std::uint32_t* lane,
                std::size_t k, double* dst) {
  if (lane == nullptr) {
    for (std::size_t j = 0; j < 64; ++j)
      dst[j] = static_cast<double>(data[base + j]);
    return;
  }
  for (std::size_t e = 0; e < k; ++e)
    dst[lane[e]] = static_cast<double>(data[base + lane[e]]);
}

void load_packed(const storage::PackedView& pv, std::size_t base,
                 const std::uint32_t* lane, std::size_t k, double* dst) {
  if (lane == nullptr || unpack_whole_block(pv, base, k)) {
    alignas(64) std::uint64_t buf[64];
    storage::bitunpack_block64(pv.words, pv.bits, base, buf);
    if (lane == nullptr) {
      for (std::size_t j = 0; j < 64; ++j)
        dst[j] = static_cast<double>(pv.reference +
                                     static_cast<std::int64_t>(buf[j]));
      return;
    }
    for (std::size_t e = 0; e < k; ++e)
      dst[lane[e]] = static_cast<double>(
          pv.reference + static_cast<std::int64_t>(buf[lane[e]]));
    return;
  }
  for (std::size_t e = 0; e < k; ++e)
    dst[lane[e]] = static_cast<double>(pv.value_at(base + lane[e]));
}

void load_leaf(const AggInput& in, std::size_t base, const std::uint32_t* lane,
               std::size_t k, double* dst) {
  switch (in.kind) {
    case AggInput::Kind::kInt32:
      return load_plain(in.i32.data(), base, lane, k, dst);
    case AggInput::Kind::kInt64:
      return load_plain(in.i64.data(), base, lane, k, dst);
    case AggInput::Kind::kDouble:
      return load_plain(in.f64.data(), base, lane, k, dst);
    case AggInput::Kind::kPacked:
      return load_packed(in.packed, base, lane, k, dst);
    case AggInput::Kind::kExpr:
      break;
  }
  EIDB_ASSERT(false);
}

template <typename Op>
void combine(double* a, const double* b, const std::uint32_t* lane,
             std::size_t k, Op op) {
  if (lane == nullptr) {
    for (std::size_t j = 0; j < 64; ++j) a[j] = op(a[j], b[j]);
    return;
  }
  for (std::size_t e = 0; e < k; ++e) a[lane[e]] = op(a[lane[e]], b[lane[e]]);
}

/// Evaluates `e` on the block at `base` into out[lane] for every evaluated
/// lane. Stack slot 0 is `out`; slots 1.. live in `stack`, which holds
/// (e.depth - 1) * 64 doubles (see expr_stack).
void eval_block(const BoundExpr& e, std::size_t base,
                const std::uint32_t* lane, std::size_t k, double* out,
                double* stack) {
  const auto slot = [&](std::size_t i) {
    return i == 0 ? out : stack + (i - 1) * 64;
  };
  std::size_t sp = 0;
  for (const BoundExpr::Step& st : e.steps) {
    switch (st.kind) {
      case ExprKind::kColumn:
        load_leaf(e.leaves[st.leaf], base, lane, k, slot(sp++));
        break;
      case ExprKind::kLiteral: {
        double* dst = slot(sp++);
        if (lane == nullptr)
          std::fill_n(dst, 64, st.value);
        else
          for (std::size_t i = 0; i < k; ++i) dst[lane[i]] = st.value;
        break;
      }
      case ExprKind::kBinary: {
        --sp;
        double* a = slot(sp - 1);
        const double* b = slot(sp);
        switch (st.op) {
          case ExprOp::kAdd:
            combine(a, b, lane, k, std::plus<>());
            break;
          case ExprOp::kSub:
            combine(a, b, lane, k, std::minus<>());
            break;
          case ExprOp::kMul:
            combine(a, b, lane, k, std::multiplies<>());
            break;
          case ExprOp::kDiv:
            combine(a, b, lane, k, std::divides<>());
            break;
        }
        break;
      }
    }
  }
  EIDB_ASSERT(sp == 1);
}

/// Evaluation-stack scratch for every kExpr input of one kernel call
/// (empty, no allocation, when there is none).
std::vector<double> expr_stack(std::span<const AggInput> inputs) {
  std::size_t depth = 1;
  for (const AggInput& in : inputs)
    if (in.kind == AggInput::Kind::kExpr)
      depth = std::max(depth, in.expr->depth);
  return std::vector<double>((depth - 1) * 64);
}

void acc_word(const AggInput& in, InputAcc& acc, std::size_t base,
              std::uint64_t bits, bool full, double* stack) {
  switch (in.kind) {
    case AggInput::Kind::kInt32:
      if (full)
        acc_word_full(in.i32.data(), base, acc.isum, acc.imin, acc.imax);
      else
        acc_word_bits(in.i32.data(), base, bits, acc.isum, acc.imin, acc.imax);
      break;
    case AggInput::Kind::kInt64:
      if (full)
        acc_word_full(in.i64.data(), base, acc.isum, acc.imin, acc.imax);
      else
        acc_word_bits(in.i64.data(), base, bits, acc.isum, acc.imin, acc.imax);
      break;
    case AggInput::Kind::kDouble:
      if (full)
        acc_word_full(in.f64.data(), base, acc.dsum, acc.dmin, acc.dmax);
      else
        acc_word_bits(in.f64.data(), base, bits, acc.dsum, acc.dmin, acc.dmax);
      break;
    case AggInput::Kind::kPacked:
      acc_word_packed(in.packed, acc, base, bits, full);
      break;
    case AggInput::Kind::kExpr: {
      alignas(64) double vals[64];
      if (full) {
        eval_block(*in.expr, base, nullptr, 64, vals, stack);
        acc_word_full(vals, 0, acc.dsum, acc.dmin, acc.dmax);
        break;
      }
      std::uint32_t lane[64] = {};  // zeroed: quiets -Wmaybe-uninitialized
      std::size_t k = 0;
      for (std::uint64_t b = bits; b != 0; b &= b - 1)
        lane[k++] = static_cast<std::uint32_t>(__builtin_ctzll(b));
      eval_block(*in.expr, base, lane, k, vals, stack);
      acc_word_bits(vals, 0, bits, acc.dsum, acc.dmin, acc.dmax);
      break;
    }
  }
}

/// One pass over selection words [word_begin, word_end) accumulating every
/// input; returns the number of selected rows seen.
std::uint64_t multi_acc_range(std::span<const AggInput> inputs,
                              const BitVector& selection,
                              std::size_t word_begin, std::size_t word_end,
                              std::vector<InputAcc>& accs) {
  const std::uint64_t* words = selection.words();
  std::vector<double> stack = expr_stack(inputs);
  std::uint64_t count = 0;
  for (std::size_t w = word_begin; w < word_end; ++w) {
    const std::uint64_t bits = words[w];
    if (bits == 0) continue;
    count += static_cast<std::uint64_t>(__builtin_popcountll(bits));
    const bool full = bits == ~std::uint64_t{0};
    const std::size_t base = w * 64;
    for (std::size_t j = 0; j < inputs.size(); ++j)
      acc_word(inputs[j], accs[j], base, bits, full, stack.data());
  }
  return count;
}

std::vector<AggOut> finalize_multi(std::span<const AggInput> inputs,
                                   const std::vector<InputAcc>& accs,
                                   std::uint64_t count) {
  std::vector<AggOut> outs(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    AggOut& o = outs[j];
    o.is_double = inputs[j].is_double();
    if (o.is_double) {
      o.d.count = count;
      o.d.sum = accs[j].dsum;
      o.d.min = count ? accs[j].dmin : 0;
      o.d.max = count ? accs[j].dmax : 0;
    } else {
      o.i.count = count;
      o.i.sum = accs[j].isum;
      o.i.min = count ? accs[j].imin : 0;
      o.i.max = count ? accs[j].imax : 0;
    }
  }
  return outs;
}

void check_input_sizes(std::span<const AggInput> inputs,
                       const BitVector& selection) {
  for (const AggInput& in : inputs)
    EIDB_EXPECTS(selection.size() >= in.size());
}

// ---------------------------------------------------------------------------
// Grouped multi-aggregate.
// ---------------------------------------------------------------------------

/// Slot-indexed accumulation arrays shared by the dense and hash paths:
/// one count per group plus sum/min/max per (input, group).
struct GroupAccum {
  struct IntArrays {
    std::vector<std::int64_t> sum, mn, mx;
  };
  struct DblArrays {
    std::vector<double> sum, mn, mx;
  };
  std::vector<std::uint64_t> counts;
  std::vector<IntArrays> iarr;  // indexed by input; empty for double inputs
  std::vector<DblArrays> darr;  // indexed by input; empty for int inputs

  void init(std::span<const AggInput> inputs) {
    iarr.resize(inputs.size());
    darr.resize(inputs.size());
  }

  /// Grows every array to `slots`, default-initializing new groups.
  /// Capacity grows geometrically so one-slot-at-a-time growth (hash path)
  /// stays amortized O(1).
  void ensure(std::size_t slots, std::span<const AggInput> inputs) {
    if (counts.size() >= slots) return;
    if (counts.capacity() < slots) {
      const std::size_t cap = std::max(slots, counts.capacity() * 2 + 16);
      counts.reserve(cap);
      for (std::size_t j = 0; j < inputs.size(); ++j) {
        if (inputs[j].is_double()) {
          darr[j].sum.reserve(cap);
          darr[j].mn.reserve(cap);
          darr[j].mx.reserve(cap);
        } else {
          iarr[j].sum.reserve(cap);
          iarr[j].mn.reserve(cap);
          iarr[j].mx.reserve(cap);
        }
      }
    }
    counts.resize(slots, 0);
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (inputs[j].is_double()) {
        darr[j].sum.resize(slots, 0);
        darr[j].mn.resize(slots, std::numeric_limits<double>::infinity());
        darr[j].mx.resize(slots, -std::numeric_limits<double>::infinity());
      } else {
        iarr[j].sum.resize(slots, 0);
        iarr[j].mn.resize(slots, std::numeric_limits<std::int64_t>::max());
        iarr[j].mx.resize(slots, std::numeric_limits<std::int64_t>::min());
      }
    }
  }
};

/// Accumulates one extracted block (up to 64 rows) for one input.
template <typename T, typename A>
void acc_block_grouped(const T* data, const std::uint32_t* idx,
                       const std::uint32_t* slot, std::size_t k,
                       A& arrays) {
  using S = std::decay_t<decltype(arrays.sum[0])>;
  for (std::size_t e = 0; e < k; ++e) {
    const S v = static_cast<S>(data[idx[e]]);
    const std::uint32_t s = slot[e];
    arrays.sum[s] += v;
    arrays.mn[s] = std::min(arrays.mn[s], v);
    arrays.mx[s] = std::max(arrays.mx[s], v);
  }
}

void acc_block_grouped_packed(const storage::PackedView& pv,
                              const std::uint32_t* idx,
                              const std::uint32_t* slot, std::size_t k,
                              GroupAccum::IntArrays& arrays) {
  // All idx entries of one call lie in a single 64-value block (they were
  // extracted from one selection word) — the grouped mirror of
  // acc_word_packed.
  const std::size_t base = k > 0 ? (idx[0] / 64) * 64 : 0;
  alignas(64) std::uint64_t buf[64];
  const bool unpack_block = unpack_whole_block(pv, base, k);
  if (unpack_block) storage::bitunpack_block64(pv.words, pv.bits, base, buf);
  for (std::size_t e = 0; e < k; ++e) {
    const std::int64_t v =
        unpack_block
            ? pv.reference + static_cast<std::int64_t>(buf[idx[e] - base])
            : pv.value_at(idx[e]);
    const std::uint32_t s = slot[e];
    arrays.sum[s] += v;
    arrays.mn[s] = std::min(arrays.mn[s], v);
    arrays.mx[s] = std::max(arrays.mx[s], v);
  }
}

/// Readonly key accessor over a bit-packed column image, shaped like the
/// span the templated grouped kernels expect (operator[] + size()).
struct PackedKeys {
  storage::PackedView view;
  [[nodiscard]] std::int64_t operator[](std::size_t i) const {
    return view.value_at(i);
  }
  [[nodiscard]] std::size_t size() const { return view.count; }
};

/// Core grouped pass, templated over key width. `resolve` maps a key to a
/// dense slot id (identity-offset for the dense strategy, hash lookup
/// otherwise). Processes selection words [word_begin, word_end).
template <typename Keys, typename Resolve>
void grouped_acc_range(const Keys& keys,
                       std::span<const AggInput> inputs,
                       const BitVector& selection, std::size_t word_begin,
                       std::size_t word_end, Resolve&& resolve,
                       GroupAccum& acc) {
  const std::uint64_t* words = selection.words();
  std::vector<double> stack = expr_stack(inputs);
  std::uint32_t idx[64];
  std::uint32_t slot[64];
  for (std::size_t w = word_begin; w < word_end; ++w) {
    std::uint64_t bits = words[w];
    if (bits == 0) continue;  // dead block: 64 rows skipped outright
    const std::size_t base = w * 64;
    std::size_t k = 0;
    while (bits != 0) {
      const auto j = static_cast<std::size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      idx[k++] = static_cast<std::uint32_t>(base + j);
    }
    // Key column touched once per row: slots computed for the whole block,
    // then every input accumulates column-at-a-time over the block.
    for (std::size_t e = 0; e < k; ++e)
      slot[e] = resolve(static_cast<std::int64_t>(keys[idx[e]]));
    for (std::size_t e = 0; e < k; ++e) ++acc.counts[slot[e]];
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const AggInput& in = inputs[j];
      switch (in.kind) {
        case AggInput::Kind::kInt32:
          acc_block_grouped(in.i32.data(), idx, slot, k, acc.iarr[j]);
          break;
        case AggInput::Kind::kInt64:
          acc_block_grouped(in.i64.data(), idx, slot, k, acc.iarr[j]);
          break;
        case AggInput::Kind::kDouble:
          acc_block_grouped(in.f64.data(), idx, slot, k, acc.darr[j]);
          break;
        case AggInput::Kind::kPacked:
          acc_block_grouped_packed(in.packed, idx, slot, k, acc.iarr[j]);
          break;
        case AggInput::Kind::kExpr: {
          alignas(64) double vals[64];
          std::uint32_t lane[64];
          for (std::size_t e = 0; e < k; ++e)
            lane[e] = idx[e] - static_cast<std::uint32_t>(base);
          eval_block(*in.expr, base, k == 64 ? nullptr : lane, k, vals,
                     stack.data());
          acc_block_grouped(vals, lane, slot, k, acc.darr[j]);
          break;
        }
      }
    }
  }
}

/// Key min/max over the selected rows (fallback when the caller has no
/// cached statistics).
template <typename Keys>
KeyRange selected_key_range(const Keys& keys, const BitVector& selection) {
  KeyRange r;
  std::int64_t mn = std::numeric_limits<std::int64_t>::max();
  std::int64_t mx = std::numeric_limits<std::int64_t>::min();
  bool any = false;
  selection.for_each_set([&](std::size_t i) {
    if (i >= keys.size()) return;
    any = true;
    mn = std::min<std::int64_t>(mn, keys[i]);
    mx = std::max<std::int64_t>(mx, keys[i]);
  });
  if (any) {
    r.known = true;
    r.min = mn;
    r.max = mx;
  }
  return r;
}

/// Emits groups `order[i] -> slot` as sorted GroupedAggs.
GroupedAggs emit_groups(std::span<const AggInput> inputs,
                        const GroupAccum& acc,
                        const std::vector<std::pair<std::int64_t,
                                                    std::uint32_t>>& order) {
  GroupedAggs out;
  const std::size_t g = order.size();
  out.keys.reserve(g);
  out.counts.reserve(g);
  out.iout.resize(inputs.size());
  out.dout.resize(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    if (inputs[j].is_double())
      out.dout[j].reserve(g);
    else
      out.iout[j].reserve(g);
  }
  for (const auto& [key, slot] : order) {
    out.keys.push_back(key);
    const std::uint64_t count = acc.counts[slot];
    out.counts.push_back(count);
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (inputs[j].is_double()) {
        const auto& a = acc.darr[j];
        out.dout[j].push_back({count, a.sum[slot], a.mn[slot], a.mx[slot]});
      } else {
        const auto& a = acc.iarr[j];
        out.iout[j].push_back({count, a.sum[slot], a.mn[slot], a.mx[slot]});
      }
    }
  }
  return out;
}

template <typename Keys>
GroupedAggs grouped_impl(const Keys& keys,
                         std::span<const AggInput> inputs,
                         const BitVector& selection, KeyRange range,
                         GroupStrategy strategy, std::size_t word_begin,
                         std::size_t word_end) {
  if (!range.known) range = selected_key_range(keys, selection);
  if (!range.known) return {};  // empty selection

  // Unsigned width survives hash-like int64 keys whose spread overflows
  // a signed domain computation (huge widths simply fail the dense test).
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  const bool dense_ok = width < static_cast<std::uint64_t>(kDenseDomainLimit);
  GroupStrategy chosen = strategy;
  if (chosen == GroupStrategy::kAuto)
    chosen = dense_ok ? GroupStrategy::kDenseArray : GroupStrategy::kHash;
  if (chosen == GroupStrategy::kDenseArray && !dense_ok)
    throw Error("dense group-by domain too large");

  GroupAccum acc;
  acc.init(inputs);
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;

  if (chosen == GroupStrategy::kDenseArray) {
    const auto domain = static_cast<std::size_t>(width) + 1;
    acc.ensure(domain, inputs);
    const std::int64_t kmin = range.min;
    grouped_acc_range(keys, inputs, selection, word_begin, word_end,
                      [kmin](std::int64_t key) {
                        return static_cast<std::uint32_t>(key - kmin);
                      },
                      acc);
    // Slot order == key order for the dense layout.
    for (std::size_t s = 0; s < static_cast<std::size_t>(domain); ++s)
      if (acc.counts[s] != 0)
        order.emplace_back(kmin + static_cast<std::int64_t>(s),
                           static_cast<std::uint32_t>(s));
  } else {
    // Size the table from the cached distinct estimate when the caller
    // has one; otherwise popcount only this call's word range (the
    // parallel path invokes grouped_impl once per chunk).
    std::size_t sized = range.distinct_hint;
    if (sized == 0) {
      const std::uint64_t* words = selection.words();
      std::uint64_t local = 0;
      for (std::size_t w = word_begin; w < word_end; ++w)
        local += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
      sized = static_cast<std::size_t>(local) / 8 + 16;
    }
    HashTable<std::uint32_t> slots(sized);
    std::uint32_t next = 0;
    grouped_acc_range(
        keys, inputs, selection, word_begin, word_end,
        [&](std::int64_t key) {
          std::uint32_t& s = slots.get_or_insert(
              key, [&](std::uint32_t& fresh) { fresh = next++; });
          acc.ensure(next, inputs);
          return s;
        },
        acc);
    order.reserve(next);
    slots.for_each([&](std::int64_t key, const std::uint32_t& s) {
      order.emplace_back(key, s);
    });
    std::sort(order.begin(), order.end());
  }
  return emit_groups(inputs, acc, order);
}

/// Merges partial GroupedAggs (parallel workers) by key.
void merge_grouped(std::span<const AggInput> inputs, const GroupedAggs& part,
                   HashTable<std::uint32_t>& slots, std::uint32_t& next,
                   GroupAccum& acc) {
  for (std::size_t g = 0; g < part.keys.size(); ++g) {
    const std::int64_t key = part.keys[g];
    const std::uint32_t s = slots.get_or_insert(
        key, [&](std::uint32_t& f) { f = next++; });
    acc.ensure(next, inputs);
    acc.counts[s] += part.counts[g];
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (inputs[j].is_double()) {
        const AggResultD& r = part.dout[j][g];
        auto& a = acc.darr[j];
        a.sum[s] += r.sum;
        a.mn[s] = std::min(a.mn[s], r.min);
        a.mx[s] = std::max(a.mx[s], r.max);
      } else {
        const AggResult& r = part.iout[j][g];
        auto& a = acc.iarr[j];
        a.sum[s] += r.sum;
        a.mn[s] = std::min(a.mn[s], r.min);
        a.mx[s] = std::max(a.mx[s], r.max);
      }
    }
  }
}

template <typename Keys>
GroupedAggs parallel_grouped_impl(sched::ThreadPool& pool,
                                  const Keys& keys,
                                  std::span<const AggInput> inputs,
                                  const BitVector& selection, KeyRange range,
                                  std::size_t morsel_rows) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  if (!range.known) range = selected_key_range(keys, selection);
  if (!range.known) return {};

  // Per-worker dense accumulators only for modest domains; everything
  // larger hashes explicitly — per-chunk dense arrays over a big domain
  // would pay O(domain) init and emit per chunk.
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  const GroupStrategy strategy =
      width < static_cast<std::uint64_t>(kParallelDenseLimit)
          ? GroupStrategy::kDenseArray
          : GroupStrategy::kHash;

  const std::size_t n = keys.size();
  // Chunks are at least a morsel but no more than ~4 per worker, so the
  // per-chunk dense-array setup amortizes over enough rows.
  const std::size_t chunks = pool.thread_count() * 4;
  const std::size_t per_worker = (n + chunks - 1) / chunks;
  const std::size_t grain =
      std::max<std::size_t>(64, std::max(morsel_rows, per_worker) / 64 * 64);
  const std::size_t total_words = (n + 63) / 64;

  // One result slot per chunk, merged in chunk order after the pass: the
  // double sums fold in the same order on every run and pool width.
  std::vector<GroupedAggs> parts((n + grain - 1) / grain);
  pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    // Morsels are grain-aligned (multiple of 64): whole selection words.
    const std::size_t wb = begin / 64;
    const std::size_t we = std::min(total_words, (end + 63) / 64);
    parts[begin / grain] =
        grouped_impl(keys, inputs, selection, range, strategy, wb, we);
  });

  GroupAccum merged;
  merged.init(inputs);
  HashTable<std::uint32_t> slots;
  std::uint32_t next = 0;
  for (const GroupedAggs& part : parts)
    merge_grouped(inputs, part, slots, next, merged);

  std::vector<std::pair<std::int64_t, std::uint32_t>> order;
  order.reserve(next);
  slots.for_each([&](std::int64_t key, const std::uint32_t& s) {
    order.emplace_back(key, s);
  });
  std::sort(order.begin(), order.end());
  return emit_groups(inputs, merged, order);
}

/// Appends `e`'s postfix steps to `out`; `sp` tracks the stack height.
void bind_rec(const Expr& e, const storage::Table& table,
              const std::function<AggInput(const storage::Column&)>& leaf,
              BoundExpr& out, std::size_t& sp) {
  BoundExpr::Step step;
  step.kind = e.kind();
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const storage::Column& c = table.column(e.column_name());
      if (c.type() == storage::TypeId::kString)
        throw Error("cannot use string column " + c.name() +
                    " in arithmetic");
      AggInput in = leaf(c);
      EIDB_EXPECTS(in.kind != AggInput::Kind::kExpr && in.size() == out.rows);
      step.leaf = static_cast<std::uint32_t>(out.leaves.size());
      out.leaves.push_back(std::move(in));
      out.depth = std::max(out.depth, ++sp);
      break;
    }
    case ExprKind::kLiteral:
      step.value = e.literal_value();
      out.depth = std::max(out.depth, ++sp);
      break;
    case ExprKind::kBinary:
      bind_rec(e.lhs(), table, leaf, out, sp);
      bind_rec(e.rhs(), table, leaf, out, sp);
      step.op = e.op();
      --sp;
      break;
  }
  out.steps.push_back(step);
}

}  // namespace

AggInput AggInput::from(
    const Expr& e, const storage::Table& table,
    const std::function<AggInput(const storage::Column&)>& leaf) {
  auto bound = std::make_shared<BoundExpr>();
  bound->rows = table.row_count();
  std::size_t sp = 0;
  bind_rec(e, table, leaf, *bound, sp);
  AggInput in;
  in.kind = Kind::kExpr;
  in.expr = std::move(bound);
  return in;
}

std::vector<AggOut> multi_aggregate(std::span<const AggInput> inputs,
                                    const BitVector& selection) {
  check_input_sizes(inputs, selection);
  std::vector<InputAcc> accs(inputs.size());
  const std::uint64_t count =
      multi_acc_range(inputs, selection, 0, selection.word_count(), accs);
  return finalize_multi(inputs, accs, count);
}

std::vector<AggOut> parallel_multi_aggregate(sched::ThreadPool& pool,
                                             std::span<const AggInput> inputs,
                                             const BitVector& selection,
                                             std::size_t morsel_rows) {
  check_input_sizes(inputs, selection);
  const std::size_t n = selection.size();
  const std::size_t grain = std::max<std::size_t>(64, morsel_rows / 64 * 64);
  const std::size_t total_words = selection.word_count();

  // One partial per chunk, folded in chunk order after the pass: the
  // double sums add up in the same order on every run and pool width.
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::vector<InputAcc>> partials(
      chunks, std::vector<InputAcc>(inputs.size()));
  std::vector<std::uint64_t> counts(chunks, 0);
  pool.parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    const std::size_t wb = begin / 64;
    const std::size_t we = std::min(total_words, (end + 63) / 64);
    counts[begin / grain] =
        multi_acc_range(inputs, selection, wb, we, partials[begin / grain]);
  });

  std::vector<InputAcc> accs(inputs.size());
  std::uint64_t count = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (counts[c] == 0) continue;
    count += counts[c];
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      const InputAcc& local = partials[c][j];
      accs[j].isum += local.isum;
      accs[j].imin = std::min(accs[j].imin, local.imin);
      accs[j].imax = std::max(accs[j].imax, local.imax);
      accs[j].dsum += local.dsum;
      accs[j].dmin = std::min(accs[j].dmin, local.dmin);
      accs[j].dmax = std::max(accs[j].dmax, local.dmax);
    }
  }
  return finalize_multi(inputs, accs, count);
}

GroupedAggs grouped_multi_aggregate(std::span<const std::int64_t> keys,
                                    std::span<const AggInput> inputs,
                                    const BitVector& selection, KeyRange range,
                                    GroupStrategy strategy) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  return grouped_impl(keys, inputs, selection, range, strategy, 0,
                      (keys.size() + 63) / 64);
}

GroupedAggs grouped_multi_aggregate32(std::span<const std::int32_t> keys,
                                      std::span<const AggInput> inputs,
                                      const BitVector& selection,
                                      KeyRange range, GroupStrategy strategy) {
  EIDB_EXPECTS(selection.size() >= keys.size());
  check_input_sizes(inputs, selection);
  return grouped_impl(keys, inputs, selection, range, strategy, 0,
                      (keys.size() + 63) / 64);
}

GroupedAggs parallel_grouped_multi_aggregate(
    sched::ThreadPool& pool, std::span<const std::int64_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows) {
  return parallel_grouped_impl(pool, keys, inputs, selection, range,
                               morsel_rows);
}

GroupedAggs parallel_grouped_multi_aggregate32(
    sched::ThreadPool& pool, std::span<const std::int32_t> keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows) {
  return parallel_grouped_impl(pool, keys, inputs, selection, range,
                               morsel_rows);
}

GroupedAggs grouped_multi_aggregate_packed(const storage::PackedView& keys,
                                           std::span<const AggInput> inputs,
                                           const BitVector& selection,
                                           KeyRange range,
                                           GroupStrategy strategy) {
  EIDB_EXPECTS(selection.size() >= keys.count);
  check_input_sizes(inputs, selection);
  return grouped_impl(PackedKeys{keys}, inputs, selection, range, strategy,
                      0, (keys.count + 63) / 64);
}

GroupedAggs parallel_grouped_multi_aggregate_packed(
    sched::ThreadPool& pool, const storage::PackedView& keys,
    std::span<const AggInput> inputs, const BitVector& selection,
    KeyRange range, std::size_t morsel_rows) {
  return parallel_grouped_impl(pool, PackedKeys{keys}, inputs, selection,
                               range, morsel_rows);
}

// ---------------------------------------------------------------------------
// JoinAggregator: gather-based sink for the late-materialized join pipeline.
// ---------------------------------------------------------------------------

namespace {

/// Internal sub-block size: key/slot scratch stays on the stack.
constexpr std::size_t kGatherBlock = 1024;

std::int64_t gather_int(const AggInput& in, std::uint32_t row) {
  switch (in.kind) {
    case AggInput::Kind::kInt32:
      return in.i32[row];
    case AggInput::Kind::kInt64:
      return in.i64[row];
    case AggInput::Kind::kPacked:
      return in.packed.value_at(row);
    case AggInput::Kind::kDouble:
    case AggInput::Kind::kExpr:
      break;
  }
  EIDB_ASSERT(false);
  return 0;
}

}  // namespace

JoinAggregator::JoinAggregator(std::vector<Input> inputs)
    : inputs_(std::move(inputs)) {
  for (const Input& in : inputs_)
    EIDB_EXPECTS(in.column.kind != AggInput::Kind::kExpr);
  iacc_.resize(inputs_.size());
  dacc_.resize(inputs_.size());
  dense_ = true;  // one implicit slot
  ensure(1);
}

JoinAggregator::JoinAggregator(std::vector<Input> inputs,
                               std::vector<KeyPart> key, KeyRange range)
    : inputs_(std::move(inputs)), key_(std::move(key)), grouped_(true) {
  EIDB_EXPECTS(!key_.empty());
  for (const Input& in : inputs_)
    EIDB_EXPECTS(in.column.kind != AggInput::Kind::kExpr);
  for (const KeyPart& part : key_)
    EIDB_EXPECTS(part.column.kind != AggInput::Kind::kDouble);
  iacc_.resize(inputs_.size());
  dacc_.resize(inputs_.size());
  const std::uint64_t width = static_cast<std::uint64_t>(range.max) -
                              static_cast<std::uint64_t>(range.min);
  dense_ = range.known &&
           width < static_cast<std::uint64_t>(kDenseDomainLimit);
  if (dense_) {
    dense_min_ = range.min;
    ensure(static_cast<std::size_t>(width) + 1);
  }
}

void JoinAggregator::ensure(std::size_t slots) {
  if (counts_.size() >= slots) return;
  counts_.resize(slots, 0);
  for (std::size_t j = 0; j < inputs_.size(); ++j) {
    if (inputs_[j].column.is_double()) {
      dacc_[j].sum.resize(slots, 0);
      dacc_[j].mn.resize(slots, std::numeric_limits<double>::infinity());
      dacc_[j].mx.resize(slots, -std::numeric_limits<double>::infinity());
    } else {
      iacc_[j].sum.resize(slots, 0);
      iacc_[j].mn.resize(slots, std::numeric_limits<std::int64_t>::max());
      iacc_[j].mx.resize(slots, std::numeric_limits<std::int64_t>::min());
    }
  }
}

std::uint32_t JoinAggregator::resolve(std::int64_t key) {
  if (dense_) return static_cast<std::uint32_t>(key - dense_min_);
  const std::uint32_t s = slots_.get_or_insert(key, [&](std::uint32_t& f) {
    f = next_++;
    slot_keys_.push_back(key);
  });
  ensure(next_);
  return s;
}

void JoinAggregator::add_block(const std::uint32_t* build_rows,
                               const std::uint32_t* probe_rows,
                               std::size_t count) {
  const std::uint32_t* rows[2] = {probe_rows, build_rows};
  add_block(rows, count);
}

void JoinAggregator::add_block(const std::uint32_t* const* side_rows,
                               std::size_t count) {
  pairs_ += count;
  std::int64_t keys[kGatherBlock];
  std::uint32_t slot[kGatherBlock];
  for (std::size_t at = 0; at < count; at += kGatherBlock) {
    const std::size_t n = std::min(kGatherBlock, count - at);
    if (!grouped_) {
      for (std::size_t e = 0; e < n; ++e) slot[e] = 0;
      counts_[0] += n;
    } else {
      // Key column(s) touched once per match: the composite key is
      // synthesized per block, then every input gathers column-at-a-time.
      for (std::size_t e = 0; e < n; ++e) keys[e] = 0;
      for (const KeyPart& part : key_) {
        const std::uint32_t* rows = side_rows[part.side] + at;
        for (std::size_t e = 0; e < n; ++e)
          keys[e] +=
              (gather_int(part.column, rows[e]) - part.offset) * part.stride;
      }
      for (std::size_t e = 0; e < n; ++e) slot[e] = resolve(keys[e]);
      for (std::size_t e = 0; e < n; ++e) ++counts_[slot[e]];
    }
    for (std::size_t j = 0; j < inputs_.size(); ++j) {
      const Input& in = inputs_[j];
      const std::uint32_t* rows = side_rows[in.side] + at;
      if (in.column.is_double()) {
        const auto data = in.column.f64;
        DblAcc& a = dacc_[j];
        for (std::size_t e = 0; e < n; ++e) {
          const double v = data[rows[e]];
          const std::uint32_t s = slot[e];
          a.sum[s] += v;
          a.mn[s] = std::min(a.mn[s], v);
          a.mx[s] = std::max(a.mx[s], v);
        }
      } else {
        IntAcc& a = iacc_[j];
        for (std::size_t e = 0; e < n; ++e) {
          const std::int64_t v = gather_int(in.column, rows[e]);
          const std::uint32_t s = slot[e];
          a.sum[s] += v;
          a.mn[s] = std::min(a.mn[s], v);
          a.mx[s] = std::max(a.mx[s], v);
        }
      }
    }
  }
}

void JoinAggregator::merge_from(const JoinAggregator& other) {
  pairs_ += other.pairs_;
  const auto merge_slot = [&](std::uint32_t mine, std::size_t theirs) {
    counts_[mine] += other.counts_[theirs];
    for (std::size_t j = 0; j < inputs_.size(); ++j) {
      if (inputs_[j].column.is_double()) {
        DblAcc& a = dacc_[j];
        const DblAcc& o = other.dacc_[j];
        a.sum[mine] += o.sum[theirs];
        a.mn[mine] = std::min(a.mn[mine], o.mn[theirs]);
        a.mx[mine] = std::max(a.mx[mine], o.mx[theirs]);
      } else {
        IntAcc& a = iacc_[j];
        const IntAcc& o = other.iacc_[j];
        a.sum[mine] += o.sum[theirs];
        a.mn[mine] = std::min(a.mn[mine], o.mn[theirs]);
        a.mx[mine] = std::max(a.mx[mine], o.mx[theirs]);
      }
    }
  };
  if (dense_) {
    // Same slot layout (shared dense_min_): merge elementwise.
    ensure(other.counts_.size());
    for (std::size_t s = 0; s < other.counts_.size(); ++s) {
      if (other.counts_[s] != 0) merge_slot(static_cast<std::uint32_t>(s), s);
    }
  } else {
    for (std::size_t s = 0; s < other.next_; ++s)
      merge_slot(resolve(other.slot_keys_[s]), s);
  }
}

GroupedAggs JoinAggregator::finish() const {
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;
  if (!grouped_) {
    order.emplace_back(0, 0);
  } else if (dense_) {
    for (std::size_t s = 0; s < counts_.size(); ++s)
      if (counts_[s] != 0)
        order.emplace_back(dense_min_ + static_cast<std::int64_t>(s),
                           static_cast<std::uint32_t>(s));
  } else {
    order.reserve(next_);
    for (std::size_t s = 0; s < next_; ++s)
      order.emplace_back(slot_keys_[s], static_cast<std::uint32_t>(s));
    std::sort(order.begin(), order.end());
  }

  GroupedAggs out;
  out.keys.reserve(order.size());
  out.counts.reserve(order.size());
  out.iout.resize(inputs_.size());
  out.dout.resize(inputs_.size());
  for (const auto& [key, slot] : order) {
    out.keys.push_back(key);
    const std::uint64_t count = counts_[slot];
    out.counts.push_back(count);
    for (std::size_t j = 0; j < inputs_.size(); ++j) {
      if (inputs_[j].column.is_double()) {
        const DblAcc& a = dacc_[j];
        out.dout[j].push_back({count, a.sum[slot], count ? a.mn[slot] : 0,
                               count ? a.mx[slot] : 0});
      } else {
        const IntAcc& a = iacc_[j];
        out.iout[j].push_back({count, a.sum[slot], count ? a.mn[slot] : 0,
                               count ? a.mx[slot] : 0});
      }
    }
  }
  return out;
}

}  // namespace eidb::exec
