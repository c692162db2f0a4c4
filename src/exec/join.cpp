#include "exec/join.hpp"

#include "util/assert.hpp"

namespace eidb::exec {

namespace {

/// Inserts the selected rows into `table` in descending row order so the
/// LIFO chains replay ascending during probes: block output matches the
/// nested-loop oracle's (probe asc, build asc) order without a sort.
template <typename JoinTable>
void insert_descending(JoinTable& table, const JoinKeys& keys,
                       const BitVector& selection) {
  const std::uint64_t* words = selection.words();
  for (std::size_t w = selection.word_count(); w-- > 0;) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const auto j = static_cast<std::size_t>(63 - __builtin_clzll(bits));
      bits &= ~(std::uint64_t{1} << j);
      const std::size_t i = w * 64 + j;
      table.insert(keys.at(i), static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace

std::vector<JoinPair> nested_loop_join(
    std::span<const std::int64_t> build_keys, const BitVector& build_selection,
    std::span<const std::int64_t> probe_keys,
    const BitVector& probe_selection) {
  EIDB_EXPECTS(build_selection.size() == build_keys.size());
  EIDB_EXPECTS(probe_selection.size() == probe_keys.size());
  std::vector<JoinPair> out;
  probe_selection.for_each_set([&](std::size_t p) {
    build_selection.for_each_set([&](std::size_t b) {
      if (build_keys[b] == probe_keys[p])
        out.push_back(
            {static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(p)});
    });
  });
  return out;
}

JoinHashTable build_join_table(const JoinKeys& keys,
                               const BitVector& selection) {
  EIDB_EXPECTS(selection.size() == keys.size());
  JoinHashTable table(selection.count());
  insert_descending(table, keys, selection);
  return table;
}

DenseJoinTable build_dense_join_table(const JoinKeys& keys,
                                      const BitVector& selection,
                                      std::int64_t min_key,
                                      std::int64_t domain) {
  EIDB_EXPECTS(selection.size() == keys.size());
  EIDB_EXPECTS(domain >= 1);
  DenseJoinTable table(min_key, domain);
  insert_descending(table, keys, selection);
  return table;
}

}  // namespace eidb::exec
