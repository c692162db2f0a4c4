// Radix-partitioned hash join.
//
// For builds larger than the cache, a single hash table thrashes; the
// classic fix partitions both inputs by key radix so each partition's
// table fits in cache, then joins partition pairs independently (which is
// also the natural parallel decomposition — each pair is a morsel). This
// implements a single-pass radix partition + per-partition join.
//
// Two entry points:
//  * `radix_partition` + `join_partition_blocks` — the composable
//    primitives the executor's vectorized join path drives: partitions
//    are built once per side, then each partition pair streams its
//    matches block-at-a-time into a sink (late materialization, no pair
//    vector), serially or as independent worker-pool tasks.
//  * `radix_hash_join` — the pair-materializing wrapper (kernel bench and
//    differential tests), built on the same primitives.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exec/join.hpp"
#include "sched/thread_pool.hpp"

namespace eidb::exec {

/// One side of a radix-partitioned join: per partition, the (key, row)
/// pairs of the selected rows, in ascending row order. Partition index is
/// `hash_key(key) & (2^bits - 1)` — hashing balances skewed domains.
struct RadixPartitions {
  std::vector<std::vector<std::pair<std::int64_t, std::uint32_t>>> parts;
};

/// Partitions the selected rows of `keys` into 2^radix_bits partitions.
/// Preconditions: selection.size() == keys.size(), radix_bits in [1, 16].
[[nodiscard]] RadixPartitions radix_partition(const JoinKeys& keys,
                                              const BitVector& selection,
                                              unsigned radix_bits);

/// Joins one build/probe partition pair (same partition index from
/// radix_partition of both sides), streaming matches block-at-a-time into
/// `sink`. Within the partition, probe order is preserved and build rows
/// ascend per probe row. Returns the number of pairs emitted.
std::uint64_t join_partition_blocks(
    const std::vector<std::pair<std::int64_t, std::uint32_t>>& build,
    const std::vector<std::pair<std::int64_t, std::uint32_t>>& probe,
    const JoinBlockSink& sink);

/// Inner equi-join, radix-partitioned into 2^bits partitions.
/// Output is normalized to (probe_row, build_row) ascending, the order
/// nested_loop_join emits.
/// Precondition: each selection's size equals its key span's size.
[[nodiscard]] std::vector<JoinPair> radix_hash_join(
    std::span<const std::int64_t> build_keys, const BitVector& build_selection,
    std::span<const std::int64_t> probe_keys, const BitVector& probe_selection,
    unsigned radix_bits = 6, sched::ThreadPool* pool = nullptr);

}  // namespace eidb::exec
