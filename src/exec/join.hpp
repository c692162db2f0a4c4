// Equi-join kernels over integer key columns.
//
// The executor's join arms run the block-at-a-time pipeline (`JoinKeys`,
// `build_join_table` / `build_dense_join_table`, `probe_join_blocks`),
// which never materializes the pair set: matches are streamed to a sink
// in bounded blocks (late materialization), keys are consumed through a
// typed view that reads int32/int64/dictionary-code spans or bit-packed
// column images in place — no widened int64 copy — and the probe range is
// addressable in 64-row selection words so the executor can drive it
// morsel-parallel. `nested_loop_join` returns every match as a `JoinPair`
// vector in (probe asc, build asc) order: it is the kernels' test oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/hash_table.hpp"
#include "storage/bitpack.hpp"
#include "util/assert.hpp"
#include "util/bitvector.hpp"

namespace eidb::exec {

/// One matched pair: row index on the build side, row index on the probe
/// side.
struct JoinPair {
  std::uint32_t build_row;
  std::uint32_t probe_row;
};

/// Reference nested-loop join (test oracle; O(n*m)). Pairs are emitted
/// in (probe asc, build asc) order.
/// Precondition: each selection's size equals its key span's size.
[[nodiscard]] std::vector<JoinPair> nested_loop_join(
    std::span<const std::int64_t> build_keys, const BitVector& build_selection,
    std::span<const std::int64_t> probe_keys, const BitVector& probe_selection);

// ---------------------------------------------------------------------------
// Block-at-a-time join pipeline.
// ---------------------------------------------------------------------------

/// Typed, possibly bit-packed view of an integer join-key column. The
/// executor hands both sides to the kernels through this view, so packed
/// key columns (storage::EncodedSegment images) are decoded per accessed
/// row — the column's DRAM traffic is its packed image, and the widened
/// int64 copy of the pre-vectorized join path is gone.
class JoinKeys {
 public:
  static JoinKeys from(std::span<const std::int32_t> v) {
    JoinKeys k;
    k.kind_ = Kind::kInt32;
    k.i32_ = v;
    return k;
  }
  static JoinKeys from(std::span<const std::int64_t> v) {
    JoinKeys k;
    k.kind_ = Kind::kInt64;
    k.i64_ = v;
    return k;
  }
  static JoinKeys from(storage::PackedView v) {
    JoinKeys k;
    k.kind_ = Kind::kPacked;
    k.packed_ = v;
    return k;
  }
  /// Dictionary codes viewed through a cross-dictionary translation:
  /// at(i) == remap[codes[i]]. This is how a build side whose strings (or
  /// doubles) were encoded against a different dictionary joins in the
  /// probe side's code domain — codes the probe dictionary lacks remap to
  /// -1, which no probe code (always >= 0) ever equals, so missing keys
  /// fall out of every arm without a special case. `remap` must outlive
  /// the view and cover [0, max(codes)].
  static JoinKeys remapped(std::span<const std::int32_t> codes,
                           std::span<const std::int32_t> remap) {
    JoinKeys k;
    k.kind_ = Kind::kRemapped;
    k.i32_ = codes;
    k.remap_ = remap;
    return k;
  }

  [[nodiscard]] std::int64_t at(std::size_t i) const {
    switch (kind_) {
      case Kind::kInt32:
        return i32_[i];
      case Kind::kInt64:
        return i64_[i];
      case Kind::kPacked:
        return packed_.value_at(i);
      case Kind::kRemapped:
        return remap_[static_cast<std::size_t>(i32_[i])];
    }
    return 0;
  }
  [[nodiscard]] std::size_t size() const {
    switch (kind_) {
      case Kind::kInt32:
      case Kind::kRemapped:
        return i32_.size();
      case Kind::kInt64:
        return i64_.size();
      case Kind::kPacked:
        return packed_.count;
    }
    return 0;
  }

 private:
  enum class Kind : std::uint8_t { kInt32, kInt64, kPacked, kRemapped };
  Kind kind_ = Kind::kInt64;
  std::span<const std::int32_t> i32_;
  std::span<const std::int64_t> i64_;
  std::span<const std::int32_t> remap_;
  storage::PackedView packed_;
};

/// Block size of the late-materialized pipeline: big enough to amortize
/// the sink call, small enough that the match buffers stay in L1.
inline constexpr std::size_t kJoinBlockRows = 1024;

/// Sink for one block of matches: `build_rows[i]` joined `probe_rows[i]`
/// for i < count (count <= kJoinBlockRows).
using JoinBlockSink = std::function<void(
    const std::uint32_t* build_rows, const std::uint32_t* probe_rows,
    std::size_t count)>;

/// Builds the probe-side hash table over the selected build rows. Rows are
/// inserted in descending order so the LIFO chains replay ascending during
/// probes: block output matches the nested-loop oracle's
/// (probe asc, build asc) order without a sort.
/// Precondition: selection.size() == keys.size().
[[nodiscard]] JoinHashTable build_join_table(const JoinKeys& keys,
                                             const BitVector& selection);

/// Direct-address join table for dense build-key domains (dimension
/// tables with contiguous surrogate keys, the star-schema norm): the
/// chain heads are an array indexed by key - min, so a probe is one
/// bounds check and one load — no hashing, no collision chains. Memory
/// is 4 bytes per domain value; the cost model gates how sparse a domain
/// may be before this arm is dropped for hashing.
class DenseJoinTable {
 public:
  /// Table over the inclusive key domain [min_key, min_key + domain).
  DenseJoinTable(std::int64_t min_key, std::int64_t domain)
      : min_(min_key), heads_(static_cast<std::size_t>(domain), kEnd) {}

  /// Inserts (key -> row). Precondition: key inside the domain.
  void insert(std::int64_t key, std::uint32_t row) {
    const auto slot = static_cast<std::size_t>(offset_of(key));
    chain_.push_back({row, heads_[slot]});
    heads_[slot] = static_cast<std::uint32_t>(chain_.size() - 1);
  }

  /// Calls fn(row) for every row with this key; out-of-domain keys
  /// simply match nothing.
  template <typename Fn>
  void probe(std::int64_t key, Fn&& fn) const {
    const std::uint64_t slot = offset_of(key);
    if (slot >= heads_.size()) return;
    for (std::uint32_t at = heads_[slot]; at != kEnd; at = chain_[at].next)
      fn(chain_[at].row);
  }

  [[nodiscard]] std::size_t row_count() const { return chain_.size(); }

 private:
  static constexpr std::uint32_t kEnd = 0xffffffffu;
  struct Link {
    std::uint32_t row;
    std::uint32_t next;
  };
  /// key - min in unsigned arithmetic: exact modular wraparound, so a
  /// probe key arbitrarily far outside the domain rejects via the bounds
  /// check instead of overflowing signed subtraction (UB).
  [[nodiscard]] std::uint64_t offset_of(std::int64_t key) const {
    return static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(min_);
  }

  std::int64_t min_;
  std::vector<std::uint32_t> heads_;
  std::vector<Link> chain_;
};

/// Dense counterpart of build_join_table: same descending insertion so
/// probes replay build rows ascending.
/// Preconditions: selection.size() == keys.size(); every selected key in
/// [min_key, min_key + domain).
[[nodiscard]] DenseJoinTable build_dense_join_table(const JoinKeys& keys,
                                                    const BitVector& selection,
                                                    std::int64_t min_key,
                                                    std::int64_t domain);

/// Probes selection words [word_begin, word_end) against `table` (a
/// JoinHashTable or DenseJoinTable), streaming matches into `sink`
/// block-at-a-time. `limit_pairs` (0 = unlimited) stops after that many
/// matches — the LIMIT early-exit for projections. Returns the number of
/// pairs emitted. Thread-safe for concurrent calls over disjoint word
/// ranges (the executor's morsel-parallel probe).
/// Precondition: probe_selection.size() == probe_keys.size().
template <typename JoinTable>
std::uint64_t probe_join_blocks(const JoinTable& table,
                                const JoinKeys& probe_keys,
                                const BitVector& probe_selection,
                                std::size_t word_begin, std::size_t word_end,
                                const JoinBlockSink& sink,
                                std::uint64_t limit_pairs = 0) {
  EIDB_EXPECTS(probe_selection.size() == probe_keys.size());
  std::uint32_t bld[kJoinBlockRows];
  std::uint32_t prb[kJoinBlockRows];
  std::size_t k = 0;
  std::uint64_t pairs = 0;
  const auto flush = [&] {
    if (k != 0) {
      sink(bld, prb, k);
      k = 0;
    }
  };
  const std::uint64_t* words = probe_selection.words();
  const std::size_t end = std::min(word_end, probe_selection.word_count());
  for (std::size_t w = word_begin; w < end; ++w) {
    std::uint64_t bits = words[w];
    if (bits == 0) continue;
    const std::size_t base = w * 64;
    while (bits != 0) {
      const auto j = static_cast<std::size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const std::size_t i = base + j;
      table.probe(probe_keys.at(i), [&](std::uint32_t build_row) {
        if (limit_pairs != 0 && pairs >= limit_pairs) return;
        bld[k] = build_row;
        prb[k] = static_cast<std::uint32_t>(i);
        ++pairs;
        if (++k == kJoinBlockRows) flush();
      });
      if (limit_pairs != 0 && pairs >= limit_pairs) {
        flush();
        return pairs;
      }
    }
  }
  flush();
  return pairs;
}

}  // namespace eidb::exec
