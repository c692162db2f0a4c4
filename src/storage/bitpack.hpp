// Fixed-width bit packing of unsigned integers.
//
// Values are packed little-endian into 64-bit words at a fixed width
// `bits` ∈ [0, 64]. This is the workhorse layout behind dictionary codes,
// frame-of-reference and delta encodings: scans decompress 64-value blocks
// into registers/stack and evaluate predicates there, so memory traffic
// shrinks by 64/bits× — the "scan on compressed data" effect measured in
// experiment E5.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace eidb::storage {

/// Number of 64-bit words needed to hold `count` values of `bits` width.
[[nodiscard]] std::size_t packed_word_count(std::size_t count, unsigned bits);

/// Minimum width able to represent every value in `values`.
[[nodiscard]] unsigned min_bits(std::span<const std::uint64_t> values);

/// Packs `values` at width `bits`. Precondition: every value < 2^bits
/// (bits == 64 admits everything).
[[nodiscard]] std::vector<std::uint64_t> bitpack(
    std::span<const std::uint64_t> values, unsigned bits);

/// Unpacks `count` values of width `bits` from `packed` into `out`
/// (out.size() >= count).
void bitunpack(std::span<const std::uint64_t> packed, unsigned bits,
               std::size_t count, std::span<std::uint64_t> out);

/// Unpacks the 64-value block starting at value index `block_start`
/// (a multiple of 64) into `out[0..63]`. This is the one block-decode entry
/// point of every packed scan, aggregation, group and join-probe consumer:
/// it dispatches to one of 65 width-specialized unpackers whose per-lane
/// word, shift and mask are compile-time constants (no `-march` needed).
/// Precondition: the whole block lies inside `packed` (see
/// unpack_whole_block for the consumer-side rule).
void bitunpack_block64(std::span<const std::uint64_t> packed, unsigned bits,
                       std::size_t block_start, std::uint64_t out[64]);

/// Random access to a single packed value.
[[nodiscard]] std::uint64_t bitpacked_at(std::span<const std::uint64_t> packed,
                                         unsigned bits, std::size_t index);

/// Minimum width able to represent every value in [0, width] (0 when the
/// domain is a single value). The encoding-choice counterpart of min_bits
/// that works from cached statistics instead of a data pass.
[[nodiscard]] constexpr unsigned bits_for_width(std::uint64_t width) {
  unsigned bits = 0;
  while (width != 0) {
    ++bits;
    width >>= 1;
  }
  return bits;
}

/// Non-owning view of a frame-of-reference bit-packed integer sequence:
/// decoded value i = reference + packed[i]. This is the unit the packed
/// scan and aggregation kernels consume — it carries everything needed to
/// evaluate predicates and accumulate sums without materializing the
/// plain array.
struct PackedView {
  std::span<const std::uint64_t> words;
  unsigned bits = 0;
  std::int64_t reference = 0;
  std::size_t count = 0;

  [[nodiscard]] std::size_t byte_size() const {
    return words.size() * sizeof(std::uint64_t);
  }
  /// Decoded value at row `i` (modular arithmetic, exact for any domain).
  [[nodiscard]] std::int64_t value_at(std::size_t i) const {
    return reference +
           static_cast<std::int64_t>(bitpacked_at(words, bits, i));
  }
};

/// Fewest rows of one 64-row block a consumer must read before decoding
/// the whole block beats per-row bitpacked_at.
inline constexpr std::size_t kUnpackBlockMinLanes = 16;

/// The shared per-block decode rule of every packed consumer: decode the
/// 64-row block at `base` (a multiple of 64) with bitunpack_block64 when
/// it lies inside the column and at least kUnpackBlockMinLanes of its
/// rows are read; otherwise read the rows one by one with value_at.
[[nodiscard]] inline bool unpack_whole_block(const PackedView& pv,
                                             std::size_t base,
                                             std::size_t lanes) {
  return lanes >= kUnpackBlockMinLanes && base + 64 <= pv.count;
}

}  // namespace eidb::storage
