// In-memory typed column over cache-aligned storage.
//
// Columns are append-built during load, then treated as immutable by the
// execution engine (scans take `std::span<const T>` views). String columns
// carry an ordered dictionary and physically store int32 codes.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "storage/bitpack.hpp"
#include "storage/dictionary.hpp"
#include "storage/types.hpp"
#include "util/aligned_buffer.hpp"

namespace eidb::storage {

/// Physical encoding of an integer-typed column (int32 / int64 / string
/// codes; doubles are always plain).
///
///  * kPlain        — the full-width array only.
///  * kBitPacked    — values packed at the minimum width for [0, max];
///                    requires a non-negative domain (reference is 0).
///  * kForBitPacked — frame-of-reference: (v - min) packed at the minimum
///                    width for the [min, max] spread; any domain.
///
/// Encoded columns keep the plain array alongside the packed image:
/// scans and aggregations consume the packed image (less DRAM traffic),
/// while random-access consumers (joins, sorts, projections) read plain.
enum class Encoding : std::uint8_t { kPlain, kBitPacked, kForBitPacked };

[[nodiscard]] std::string encoding_name(Encoding e);

/// The packed physical image of an encoded column.
struct EncodedSegment {
  Encoding encoding = Encoding::kPlain;
  unsigned bits = 0;          ///< Packed width per value.
  std::int64_t reference = 0; ///< FOR base (0 for kBitPacked).
  std::size_t count = 0;
  std::vector<std::uint64_t> words;

  [[nodiscard]] std::size_t byte_size() const {
    return words.size() * sizeof(std::uint64_t);
  }
  [[nodiscard]] PackedView view() const {
    return PackedView{words, bits, reference, count};
  }
};

/// Cached per-column statistics, computed in one pass at load time
/// (`Table::set_column` finalizes them) and reused by every query instead
/// of rescanning the column: group-key synthesis, zone-map-style predicate
/// pruning and the optimizer's selectivity/grouping estimates all read
/// from here. Integer-typed columns (int32/int64/string codes) fill
/// min/max; double columns fill dmin/dmax.
struct ColumnStats {
  std::uint64_t rows = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double dmin = 0;
  double dmax = 0;
  /// Coarse distinct-count estimate (exact for dictionary columns and
  /// small samples; linear extrapolation beyond the sample otherwise).
  std::uint64_t distinct = 0;

  /// Size of the inclusive integer value domain [min, max]: 0 when empty,
  /// saturated to INT64_MAX when the spread overflows (hash-like int64
  /// keys) — callers treat the saturated value as "too large for dense".
  [[nodiscard]] std::int64_t domain() const {
    if (rows == 0) return 0;
    const auto width =
        static_cast<std::uint64_t>(max) - static_cast<std::uint64_t>(min);
    if (width >= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max()))
      return std::numeric_limits<std::int64_t>::max();
    return static_cast<std::int64_t>(width) + 1;
  }
  /// Estimated fraction of rows with lo <= v <= hi under a uniform-value
  /// assumption — the executor orders conjunctive predicates by this.
  [[nodiscard]] double range_selectivity(std::int64_t lo,
                                         std::int64_t hi) const;
  [[nodiscard]] double range_selectivity(double lo, double hi) const;
};

class Column {
 public:
  /// Creates an empty column of type `type` named `name`.
  Column(std::string name, TypeId type);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] TypeId type() const noexcept { return type_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Bytes of the physical in-memory representation (excluding dictionary).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return count_ * physical_size(type_);
  }

  // -- Builders -------------------------------------------------------------
  void reserve(std::size_t rows);
  void append_int32(std::int32_t v);
  void append_int64(std::int64_t v);
  void append_double(double v);
  /// Bulk builders (preferred for load paths).
  static Column from_int32(std::string name, std::span<const std::int32_t> v);
  static Column from_int64(std::string name, std::span<const std::int64_t> v);
  static Column from_double(std::string name, std::span<const double> v);
  /// Builds a dictionary-encoded string column.
  static Column from_strings(std::string name,
                             const std::vector<std::string>& values);

  // -- Typed access ---------------------------------------------------------
  [[nodiscard]] std::span<const std::int32_t> int32_data() const;
  [[nodiscard]] std::span<const std::int64_t> int64_data() const;
  [[nodiscard]] std::span<const double> double_data() const;
  /// For string columns: the dictionary codes.
  [[nodiscard]] std::span<const std::int32_t> codes() const;
  [[nodiscard]] const Dictionary& dictionary() const;
  [[nodiscard]] bool has_dictionary() const { return dict_ != nullptr; }

  // -- Double dictionary ----------------------------------------------------
  /// Double columns additionally carry an ordered DoubleDictionary plus an
  /// int32 code array, built at `Table::set_column` (skipped when the
  /// column contains NaN — no order-preserving code domain exists). The
  /// plain double array stays authoritative for aggregates, sorts and
  /// predicates; the codes exist so joins and GROUP BY run on the same
  /// int32 kernels as dictionary strings.
  void build_double_dictionary();
  [[nodiscard]] bool has_double_dictionary() const { return ddict_ != nullptr; }
  [[nodiscard]] const DoubleDictionary& double_dictionary() const;
  /// Codes of a double column. Precondition: has_double_dictionary().
  [[nodiscard]] std::span<const std::int32_t> double_codes() const;

  /// Value at row `i`, decoded (strings materialized from the dictionary).
  [[nodiscard]] Value value_at(std::size_t i) const;
  /// Integer value at row `i` for integer-typed columns (int32 / int64 /
  /// dictionary codes) — the random-access gather used by join and sort
  /// consumers, without the Value boxing of value_at.
  /// Precondition: type() != kDouble.
  [[nodiscard]] std::int64_t int_at(std::size_t i) const;

  // -- Encoded physical storage --------------------------------------------
  /// Current encoding (kPlain when no packed image exists).
  [[nodiscard]] Encoding encoding() const noexcept {
    return segment_ ? segment_->encoding : Encoding::kPlain;
  }
  /// The packed image, or nullptr for plain columns.
  [[nodiscard]] const EncodedSegment* encoded() const noexcept {
    return segment_.get();
  }
  /// Kernel view of the packed image. Precondition: encoding() != kPlain.
  [[nodiscard]] PackedView packed_view() const;
  /// Bytes a sequential scan of this column touches: the packed image when
  /// encoded, the plain array otherwise. This is what the executor charges
  /// to the DRAM ledger for scan/aggregate reads.
  [[nodiscard]] std::size_t scan_byte_size() const noexcept {
    return segment_ ? segment_->byte_size() : byte_size();
  }
  /// Explicitly (re)encodes the column, overriding the automatic choice;
  /// the override survives re-encoding after mutation. Throws Error when
  /// the encoding cannot represent the column (doubles; kBitPacked on a
  /// negative domain).
  void set_encoding(Encoding e);
  /// Builds the packed image for the stats-chosen encoding (or the
  /// explicit override, if one was set). Idempotent; called by
  /// `Table::set_column` after the statistics pass.
  void auto_encode();
  /// The encoding the automatic policy would choose from the cached
  /// statistics (without building anything).
  [[nodiscard]] Encoding choose_encoding() const;

  // -- Statistics -----------------------------------------------------------
  /// Cached column statistics. Computed on first call (one pass) and
  /// reused afterwards; `Table::set_column` finalizes eagerly so executor
  /// paths never pay the pass per query. Lazy computation is NOT
  /// thread-safe — concurrent readers must call `finalize_stats()` first
  /// (tables do). Any mutation (append_*, mutable_*) invalidates the cache.
  [[nodiscard]] const ColumnStats& stats() const;
  /// Idempotently computes and caches the statistics.
  void finalize_stats() const { (void)stats(); }

  /// Mutable typed access for in-place construction by loaders.
  [[nodiscard]] std::span<std::int32_t> mutable_int32();
  [[nodiscard]] std::span<std::int64_t> mutable_int64();
  [[nodiscard]] std::span<double> mutable_double();

 private:
  void ensure_capacity(std::size_t rows);
  /// Bulk load of `rows` physical values from `src` (null when rows == 0).
  void assign_raw(const void* src, std::size_t rows);
  template <typename T>
  void append_raw(T v);
  void build_segment(Encoding e);

  std::string name_;
  TypeId type_;
  std::size_t count_ = 0;
  AlignedBuffer data_;
  std::shared_ptr<const Dictionary> dict_;  // string columns only
  std::shared_ptr<const DoubleDictionary> ddict_;    // double columns only
  std::shared_ptr<const std::vector<std::int32_t>> dcodes_;
  mutable std::shared_ptr<const ColumnStats> stats_;  // null until computed
  std::shared_ptr<const EncodedSegment> segment_;  // null when plain
  std::optional<Encoding> forced_encoding_;  // explicit override, if any
};

/// Packed width of `encoding` over a column with `stats` — the single
/// definition both the automatic chooser and the segment builder use.
/// kBitPacked covers [0, max], kForBitPacked covers the [min, max] spread,
/// kPlain returns the plain width of `type`.
[[nodiscard]] unsigned packed_width(const ColumnStats& stats, TypeId type,
                                    Encoding encoding);

/// The automatic encoding policy, exposed for the optimizer's storage-side
/// advisor: picks the encoding whose packed width beats the plain width,
/// preferring kBitPacked when frame-of-reference adds nothing. Returns the
/// chosen packed width through `bits_out` (untouched for kPlain). Handles
/// the width-0 edge cases: empty columns stay plain, all-equal columns
/// pack to zero bits (FOR unless the constant is zero).
[[nodiscard]] Encoding choose_encoding(const ColumnStats& stats, TypeId type,
                                       unsigned* bits_out = nullptr);

}  // namespace eidb::storage
