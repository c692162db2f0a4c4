// K0 — google-benchmark micro suite backing the experiment harnesses:
// scan kernels, bit packing, codecs, hash table, group-by, join, LZ.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "exec/aggregate.hpp"
#include "exec/expression.hpp"
#include "exec/fused.hpp"
#include "exec/hash_table.hpp"
#include "exec/join.hpp"
#include "exec/radix_join.hpp"
#include "exec/scan_kernels.hpp"
#include "exec/vector_agg.hpp"
#include "storage/bitpack.hpp"
#include "storage/int_codec.hpp"
#include "storage/lz.hpp"
#include "util/rng.hpp"

namespace {

using namespace eidb;

std::vector<std::int32_t> data_i32(std::size_t n) {
  Pcg32 rng(1);
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.next_bounded(100000));
  return v;
}

std::vector<std::int64_t> data_i64(std::size_t n, std::uint32_t domain) {
  Pcg32 rng(2);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.next_bounded(domain);
  return v;
}

// -- scan kernels -------------------------------------------------------------

void BM_ScanBranching(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  const auto hi = static_cast<std::int32_t>(state.range(0));
  std::vector<std::uint32_t> out(v.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::scan_branching(v, 0, hi, out.data()));
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanBranching)->Arg(1000)->Arg(50000)->Arg(99000);

void BM_ScanPredicated(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  const auto hi = static_cast<std::int32_t>(state.range(0));
  std::vector<std::uint32_t> out(v.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::scan_predicated(v, 0, hi, out.data()));
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanPredicated)->Arg(1000)->Arg(50000)->Arg(99000);

void BM_ScanAvx2(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  BitVector out(v.size());
  for (auto _ : state) {
    exec::scan_bitmap_avx2(v, 0, 50000, out);
    benchmark::DoNotOptimize(out.words());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanAvx2);

void BM_ScanAvx512(benchmark::State& state) {
  const auto v = data_i32(1 << 20);
  BitVector out(v.size());
  for (auto _ : state) {
    exec::scan_bitmap_avx512(v, 0, 50000, out);
    benchmark::DoNotOptimize(out.words());
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK(BM_ScanAvx512);

void BM_ScanPacked(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  Pcg32 rng(3);
  std::vector<std::uint64_t> values(1 << 20);
  for (auto& v : values) v = rng.next64() & mask;
  const auto packed = storage::bitpack(values, bits);
  BitVector out(values.size());
  for (auto _ : state) {
    exec::scan_packed_bitmap(packed, bits, values.size(), mask / 4, mask / 2,
                             out);
    benchmark::DoNotOptimize(out.words());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_ScanPacked)->Arg(8)->Arg(12)->Arg(16)->Arg(32);

// -- bit packing ----------------------------------------------------------------

void BM_BitPack(benchmark::State& state) {
  Pcg32 rng(4);
  std::vector<std::uint64_t> values(1 << 18);
  for (auto& v : values) v = rng.next() & 0xfff;
  for (auto _ : state)
    benchmark::DoNotOptimize(storage::bitpack(values, 12));
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_BitPack);

void BM_BitUnpack(benchmark::State& state) {
  Pcg32 rng(5);
  std::vector<std::uint64_t> values(1 << 18);
  for (auto& v : values) v = rng.next() & 0xfff;
  const auto packed = storage::bitpack(values, 12);
  std::vector<std::uint64_t> out(values.size());
  for (auto _ : state) {
    storage::bitunpack(packed, 12, values.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_BitUnpack);

// -- codecs ----------------------------------------------------------------------

void BM_CodecEncode(benchmark::State& state) {
  const auto kind = static_cast<storage::CodecKind>(state.range(0));
  const auto codec = storage::make_codec(kind);
  const auto values = data_i64(1 << 17, 4096);
  for (auto _ : state) benchmark::DoNotOptimize(codec->encode(values));
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetLabel(storage::codec_name(kind));
}
BENCHMARK(BM_CodecEncode)->DenseRange(0, 4);

void BM_CodecDecode(benchmark::State& state) {
  const auto kind = static_cast<storage::CodecKind>(state.range(0));
  const auto codec = storage::make_codec(kind);
  const auto values = data_i64(1 << 17, 4096);
  const auto encoded = codec->encode(values);
  for (auto _ : state) benchmark::DoNotOptimize(codec->decode(encoded));
  state.SetItemsProcessed(state.iterations() * values.size());
  state.SetLabel(storage::codec_name(kind));
}
BENCHMARK(BM_CodecDecode)->DenseRange(0, 4);

// -- LZ ---------------------------------------------------------------------------

void BM_LzCompressText(benchmark::State& state) {
  std::string s;
  for (int i = 0; i < 20000; ++i) s += "row_" + std::to_string(i % 500);
  std::vector<std::byte> in(s.size());
  std::memcpy(in.data(), s.data(), s.size());
  for (auto _ : state) benchmark::DoNotOptimize(storage::lz_compress(in));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_LzCompressText);

void BM_LzDecompress(benchmark::State& state) {
  std::string s;
  for (int i = 0; i < 20000; ++i) s += "row_" + std::to_string(i % 500);
  std::vector<std::byte> in(s.size());
  std::memcpy(in.data(), s.data(), s.size());
  const auto compressed = storage::lz_compress(in);
  for (auto _ : state)
    benchmark::DoNotOptimize(storage::lz_decompress(compressed, in.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_LzDecompress);

// -- hash table / group-by / join ---------------------------------------------------

void BM_HashTableInsert(benchmark::State& state) {
  const auto keys = data_i64(1 << 16, 1 << 30);
  for (auto _ : state) {
    exec::HashTable<std::int64_t> table(keys.size());
    for (const auto k : keys) table.get_or_insert(k) += 1;
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableInsert);

void BM_HashTableProbe(benchmark::State& state) {
  const auto keys = data_i64(1 << 16, 1 << 30);
  exec::HashTable<std::int64_t> table(keys.size());
  for (const auto k : keys) table.get_or_insert(k) += 1;
  for (auto _ : state) {
    std::int64_t hits = 0;
    for (const auto k : keys) hits += table.find(k) != nullptr;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableProbe);

void BM_GroupAggregate(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const auto keys = data_i64(1 << 19, dense ? 1024 : 1 << 30);
  const auto vals = data_i64(1 << 19, 1000);
  BitVector sel(keys.size());
  sel.set_all();
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::group_aggregate(
        keys, vals, sel,
        dense ? exec::GroupStrategy::kDenseArray : exec::GroupStrategy::kHash));
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.SetLabel(dense ? "dense" : "hash");
}
BENCHMARK(BM_GroupAggregate)->Arg(1)->Arg(0);

// The executor's kHash arm: build_join_table over the build keys, then
// probe_join_blocks streaming matches block-at-a-time into a sink.
void BM_HashJoin(benchmark::State& state) {
  const auto build = data_i64(1 << 16, 1 << 16);
  const auto probe = data_i64(1 << 18, 1 << 16);
  BitVector bsel(build.size()), psel(probe.size());
  bsel.set_all();
  psel.set_all();
  const auto bkeys = exec::JoinKeys::from(std::span<const std::int64_t>(build));
  const auto pkeys = exec::JoinKeys::from(std::span<const std::int64_t>(probe));
  for (auto _ : state) {
    const exec::JoinHashTable table = exec::build_join_table(bkeys, bsel);
    std::uint64_t sum = 0;
    const std::uint64_t pairs = exec::probe_join_blocks(
        table, pkeys, psel, 0, psel.word_count(),
        [&](const std::uint32_t* b, const std::uint32_t* p, std::size_t k) {
          for (std::size_t e = 0; e < k; ++e) sum += b[e] ^ p[e];
        });
    benchmark::DoNotOptimize(pairs);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_HashJoin);

void BM_RadixJoin(benchmark::State& state) {
  const auto bits = static_cast<unsigned>(state.range(0));
  const auto build = data_i64(1 << 18, 1 << 18);  // cache-busting build
  const auto probe = data_i64(1 << 19, 1 << 18);
  BitVector bsel(build.size()), psel(probe.size());
  bsel.set_all();
  psel.set_all();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec::radix_hash_join(build, bsel, probe, psel, bits));
  state.SetItemsProcessed(state.iterations() * probe.size());
}
BENCHMARK(BM_RadixJoin)->Arg(1)->Arg(4)->Arg(8);

void BM_FusedFilterAggregate(benchmark::State& state) {
  const auto keys = data_i64(1 << 20, 100000);
  const auto vals = data_i64(1 << 20, 1000);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        exec::fused_filter_aggregate(keys, 0, 49999, vals));
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_FusedFilterAggregate);

void BM_ExpressionEval(benchmark::State& state) {
  using storage::Column;
  storage::Table t("t", storage::Schema({{"a", storage::TypeId::kInt64},
                                         {"b", storage::TypeId::kInt64}}));
  const auto a = data_i64(1 << 20, 1000);
  const auto b = data_i64(1 << 20, 100);
  t.set_column(0, Column::from_int64("a", a));
  t.set_column(1, Column::from_int64("b", b));
  // a * (1 - b/100)
  const auto e = exec::Expr::binary(
      exec::ExprOp::kMul, exec::Expr::column("a"),
      exec::Expr::binary(
          exec::ExprOp::kSub, exec::Expr::literal(1),
          exec::Expr::binary(exec::ExprOp::kDiv, exec::Expr::column("b"),
                             exec::Expr::literal(100))));
  std::vector<double> out;
  for (auto _ : state) {
    exec::evaluate_expression(*e, t, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_ExpressionEval);

// SUM(revenue * discount / 100) over packed inputs (W1's Q1 aggregate),
// evaluated per selection word from the packed leaves; the argument is the
// selectivity in percent. Items = table rows, so items/s is rows/s.
void BM_ExpressionAggregate(benchmark::State& state) {
  using storage::Column;
  constexpr std::size_t kRows = 1 << 20;
  storage::Table t("t",
                   storage::Schema({{"revenue", storage::TypeId::kInt64},
                                    {"discount", storage::TypeId::kInt64}}));
  Pcg32 rng(3);
  std::vector<std::int64_t> revenue(kRows), discount(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    revenue[i] = 1000 + rng.next_bounded(100'000);
    discount[i] = rng.next_bounded(11);
  }
  t.set_column(0, Column::from_int64("revenue", revenue));
  t.set_column(1, Column::from_int64("discount", discount));
  t.recode("revenue", storage::Encoding::kForBitPacked);
  t.recode("discount", storage::Encoding::kBitPacked);
  BitVector sel(kRows);
  const auto keep = static_cast<std::uint32_t>(state.range(0));
  for (std::size_t i = 0; i < kRows; ++i)
    if (rng.next_bounded(100) < keep) sel.set(i);
  const auto e = exec::Expr::binary(
      exec::ExprOp::kDiv,
      exec::Expr::binary(exec::ExprOp::kMul, exec::Expr::column("revenue"),
                         exec::Expr::column("discount")),
      exec::Expr::literal(100));
  const std::vector<exec::AggInput> inputs = {exec::AggInput::from(
      *e, t, [](const Column& c) {
        return exec::AggInput::from(c.packed_view());
      })};
  for (auto _ : state)
    benchmark::DoNotOptimize(exec::multi_aggregate(inputs, sel));
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ExpressionAggregate)->Arg(100)->Arg(13)->Arg(1);

}  // namespace
