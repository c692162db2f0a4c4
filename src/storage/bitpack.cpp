#include "storage/bitpack.hpp"

#include <array>
#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace eidb::storage {

std::size_t packed_word_count(std::size_t count, unsigned bits) {
  EIDB_EXPECTS(bits <= 64);
  return (count * bits + 63) / 64;
}

unsigned min_bits(std::span<const std::uint64_t> values) {
  std::uint64_t all = 0;
  for (const std::uint64_t v : values) all |= v;
  return all == 0 ? 0u : static_cast<unsigned>(64 - std::countl_zero(all));
}

std::vector<std::uint64_t> bitpack(std::span<const std::uint64_t> values,
                                   unsigned bits) {
  EIDB_EXPECTS(bits <= 64);
  std::vector<std::uint64_t> out(packed_word_count(values.size(), bits), 0);
  if (bits == 0) return out;
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::size_t bitpos = 0;
  for (const std::uint64_t raw : values) {
    const std::uint64_t v = raw & mask;
    EIDB_ASSERT(bits == 64 || raw <= mask);
    const std::size_t word = bitpos >> 6;
    const unsigned off = bitpos & 63;
    out[word] |= v << off;
    if (off + bits > 64) out[word + 1] |= v >> (64 - off);
    bitpos += bits;
  }
  return out;
}

void bitunpack(std::span<const std::uint64_t> packed, unsigned bits,
               std::size_t count, std::span<std::uint64_t> out) {
  EIDB_EXPECTS(bits <= 64);
  EIDB_EXPECTS(out.size() >= count);
  if (bits == 0) {
    for (std::size_t i = 0; i < count; ++i) out[i] = 0;
    return;
  }
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t word = bitpos >> 6;
    const unsigned off = bitpos & 63;
    std::uint64_t v = packed[word] >> off;
    if (off + bits > 64) v |= packed[word + 1] << (64 - off);
    out[i] = v & mask;
    bitpos += bits;
  }
}

namespace {

/// Lane I of a 64-value block packed at width B: its word, shift and mask
/// are compile-time constants, so every lane is one or two loads, shifts
/// and an AND with no loop-carried bit position.
template <unsigned B, std::size_t I>
inline std::uint64_t block_lane(const std::uint64_t* in) {
  constexpr std::uint64_t kMask =
      B == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << B) - 1;
  constexpr std::size_t kBit = I * B;
  constexpr std::size_t kWord = kBit / 64;
  constexpr unsigned kOff = kBit % 64;
  if constexpr (kOff + B > 64)
    return ((in[kWord] >> kOff) | (in[kWord + 1] << (64 - kOff))) & kMask;
  else
    return (in[kWord] >> kOff) & kMask;
}

template <unsigned B, std::size_t... I>
void unpack_lanes(const std::uint64_t* __restrict in,
                  std::uint64_t* __restrict out, std::index_sequence<I...>) {
  ((out[I] = block_lane<B, I>(in)), ...);
}

/// Unpacks one 64-value block at width B from its first word `in` (the
/// block spans exactly B words). Width 0 reads nothing.
template <unsigned B>
void unpack_block(const std::uint64_t* in, std::uint64_t* out) {
  if constexpr (B == 0) {
    for (int i = 0; i < 64; ++i) out[i] = 0;
  } else {
    unpack_lanes<B>(in, out, std::make_index_sequence<64>{});
  }
}

using BlockUnpacker = void (*)(const std::uint64_t*, std::uint64_t*);

/// One width-specialized unpacker per width 0..64.
constexpr auto kBlockUnpackers =
    []<std::size_t... B>(std::index_sequence<B...>) {
      return std::array<BlockUnpacker, sizeof...(B)>{
          &unpack_block<static_cast<unsigned>(B)>...};
    }(std::make_index_sequence<65>{});

}  // namespace

void bitunpack_block64(std::span<const std::uint64_t> packed, unsigned bits,
                       std::size_t block_start, std::uint64_t out[64]) {
  EIDB_EXPECTS((block_start & 63) == 0);
  EIDB_EXPECTS(bits <= 64);
  // A 64-value block at width b occupies exactly b words and starts word-
  // aligned at word (block_start / 64) * b.
  const std::size_t first = block_start / 64 * bits;
  EIDB_EXPECTS(bits == 0 || first + bits <= packed.size());
  kBlockUnpackers[bits](packed.data() + first, out);
}

std::uint64_t bitpacked_at(std::span<const std::uint64_t> packed,
                           unsigned bits, std::size_t index) {
  EIDB_EXPECTS(bits <= 64);
  if (bits == 0) return 0;
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  const std::size_t bitpos = index * bits;
  const std::size_t word = bitpos >> 6;
  const unsigned off = bitpos & 63;
  std::uint64_t v = packed[word] >> off;
  if (off + bits > 64) v |= packed[word + 1] << (64 - off);
  return v & mask;
}

}  // namespace eidb::storage
