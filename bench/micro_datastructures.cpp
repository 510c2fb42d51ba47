// Google-benchmark microbenchmarks for the data structures on MRBC's hot
// paths: DynamicBitset set-bit iteration (the substrate's flag and presence
// sets, the scheduler's pending masters), FlatMap vs std::map (the paper's
// footnote-1 choice of index for M_v), and
// HostState's sorted L_v rows — one (dist << 32 | source) key row per
// vertex — through update_distance (binary search plus one memmove) and
// nth_entry (an index), the queries behind the pipelined send schedule.
// Informational: nothing here is gated.

#include <benchmark/benchmark.h>

#include <map>

#include "core/mrbc_state.h"
#include "util/bitset.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace mrbc {
namespace {

void BM_BitsetForEachSet(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  util::DynamicBitset b(bits);
  util::Xoshiro256 rng(1);
  for (std::size_t i = 0; i < bits / 8; ++i) b.set(rng.next_bounded(bits));
  for (auto _ : state) {
    std::size_t sum = 0;
    b.for_each_set_bit([&](std::size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(b.count()));
}
BENCHMARK(BM_BitsetForEachSet)->Arg(64)->Arg(1024)->Arg(16384);

template <typename Map>
void map_churn(benchmark::State& state) {
  const auto keys = static_cast<std::uint32_t>(state.range(0));
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    Map m;
    double sum = 0;
    for (std::uint32_t i = 0; i < 256; ++i) {
      m[static_cast<std::uint32_t>(rng.next_bounded(keys))] += 1.0;
      for (const auto& [k, v] : m) sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
}

void BM_FlatMapChurn(benchmark::State& state) {
  map_churn<util::FlatMap<std::uint32_t, double>>(state);
}
void BM_StdMapChurn(benchmark::State& state) {
  map_churn<std::map<std::uint32_t, double>>(state);
}
// An M_v index holds few distinct distances (the diameter reached by the
// batch): 16 and 64 bracket the realistic range.
BENCHMARK(BM_FlatMapChurn)->Arg(16)->Arg(64);
BENCHMARK(BM_StdMapChurn)->Arg(16)->Arg(64);

void BM_HostStateUpdateDistance(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  core::HostState st(1024, k);
  util::Xoshiro256 rng(5);
  for (auto _ : state) {
    const auto lid = static_cast<graph::VertexId>(rng.next_bounded(1024));
    const auto sidx = static_cast<std::uint32_t>(rng.next_bounded(k));
    st.update_distance(lid, sidx, static_cast<std::uint32_t>(rng.next_bounded(40)));
    benchmark::DoNotOptimize(st.entry_count(lid));
  }
}
BENCHMARK(BM_HostStateUpdateDistance)->Arg(8)->Arg(32)->Arg(128);

void BM_HostStateNthEntry(benchmark::State& state) {
  const std::uint32_t k = 64;
  core::HostState st(64, k);
  util::Xoshiro256 rng(7);
  for (std::uint32_t sidx = 0; sidx < k; ++sidx) {
    st.update_distance(0, sidx, static_cast<std::uint32_t>(rng.next_bounded(20)));
  }
  std::size_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.nth_entry(0, idx));
    idx = (idx + 1) % st.entry_count(0);
  }
}
BENCHMARK(BM_HostStateNthEntry);

}  // namespace
}  // namespace mrbc

BENCHMARK_MAIN();
