// Google-benchmark microbenchmarks for the data structures on MRBC's hot
// paths: DynamicBitset iteration and counting (the source and proxy planes),
// FlatMap vs std::map (the paper's footnote-1 choice of index for M_v), and
// HostState's sorted L_v rows — one (dist << 32 | source) key row per
// vertex — through update_distance (binary search plus one memmove) and
// nth_entry (an index), the queries behind the pipelined send schedule.
//
// After the benchmark suite, main runs frontier_scan_gate(): an enforced
// check that the dispatched bitwords kernels beat their scalar references on
// a frontier-sized word array — >= 2x on count, the plane-reduction kernel
// of the direction-optimized drains. The gate writes micro_datastructures.csv
// (gated against the committed baseline by compare_bench --micro) and exits
// 0 with a warning when SIMD is unavailable or disabled, so the scalar CI
// job still runs the suite without faking a speedup.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "core/mrbc_state.h"
#include "util/bitset.h"
#include "util/csv.h"
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
    b.for_each_set([&](std::size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(b.count()));
}
BENCHMARK(BM_BitsetForEachSet)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BitsetCount(benchmark::State& state) {
  util::DynamicBitset b(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256 rng(2);
  for (std::size_t i = 0; i < b.size() / 4; ++i) b.set(rng.next_bounded(b.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.count());
  }
}
BENCHMARK(BM_BitsetCount)->Arg(1024)->Arg(65536);

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

// ---- Enforced SIMD frontier-scan gate --------------------------------------

/// Best-of-`reps` nanoseconds for one invocation of `fn`, each sample
/// averaging `iters` back-to-back calls.
double best_ns(int reps, int iters, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
    if (ns < best) best = ns;
  }
  return best;
}

/// Compares each dispatched bitwords kernel against its scalar reference on
/// a 2M-bit (32768-word) array — the plane size of a scale-21 frontier.
/// Kernel inputs are chosen so neither side can early-out: count/and_not run
/// over a random half-dense plane, any_intersect over disjoint planes (no
/// hit until the end), find_nonzero over an all-zero plane (the worst-case
/// zero-word skip). Only count is enforced; the others are informational
/// because their scalar loops already run near memory bandwidth.
int frontier_scan_gate() {
  constexpr std::size_t kBits = std::size_t{1} << 21;
  constexpr std::size_t kWords = kBits / 64;
  constexpr double kBudget = 2.0;  // enforced min speedup on count

  if (!util::simd_enabled()) {
    std::printf(
        "WARNING: SIMD unavailable or disabled (MRBC_NO_SIMD / no AVX2); "
        "skipping frontier-scan gate\n");
    return 0;
  }

  util::DynamicBitset dense(kBits), mask(kBits), zero(kBits);
  util::Xoshiro256 rng(11);
  for (std::size_t i = 0; i < kBits / 2; ++i) dense.set(rng.next_bounded(kBits));
  for (std::size_t i = 0; i < kBits / 2; ++i) mask.set(rng.next_bounded(kBits));

  struct Row {
    std::string kernel;
    double scalar_ns, simd_ns;
    bool enforced;
  };
  std::vector<Row> rows;

  const util::DynamicBitset::Word* dw = dense.words().data();
  const util::DynamicBitset::Word* zw = zero.words().data();
  const util::DynamicBitset::Word* mw = mask.words().data();

  std::size_t sink = 0;
  rows.push_back({"count",
                  best_ns(7, 50, [&] { sink += util::bitwords::count_scalar(dw, kWords); }),
                  best_ns(7, 50, [&] { sink += util::bitwords::count(dw, kWords); }), true});
  std::vector<util::DynamicBitset::Word> scratch(dense.words());
  rows.push_back(
      {"and_not",
       best_ns(7, 50, [&] { util::bitwords::and_not_scalar(scratch.data(), mw, kWords); }),
       best_ns(7, 50, [&] { util::bitwords::and_not(scratch.data(), mw, kWords); }), false});
  rows.push_back({"any_intersect",
                  best_ns(7, 50,
                          [&] { sink += util::bitwords::any_intersect_scalar(dw, zw, kWords); }),
                  best_ns(7, 50, [&] { sink += util::bitwords::any_intersect(dw, zw, kWords); }),
                  false});
  rows.push_back(
      {"find_nonzero",
       best_ns(7, 50, [&] { sink += util::bitwords::find_nonzero_scalar(zw, kWords, 0); }),
       best_ns(7, 50, [&] { sink += util::bitwords::find_nonzero(zw, kWords, 0); }), false});
  benchmark::DoNotOptimize(sink);

  int failures = 0;
  util::CsvWriter csv("micro_datastructures.csv",
                      {"kernel", "bits", "scalar_ns", "simd_ns", "speedup", "budget"});
  for (const Row& r : rows) {
    const double speedup = r.simd_ns > 0 ? r.scalar_ns / r.simd_ns : 1.0;
    std::printf("%-14s %7zu bits  scalar %9.1f ns  simd %9.1f ns  speedup %5.2fx%s\n",
                r.kernel.c_str(), kBits, r.scalar_ns, r.simd_ns, speedup,
                r.enforced ? "  (budget >= 2.0x)" : "");
    if (r.enforced && speedup < kBudget) {
      std::printf("FAIL: %s SIMD speedup under %.1fx\n", r.kernel.c_str(), kBudget);
      ++failures;
    }
    char sc[32], si[32], sp[32], bu[32];
    std::snprintf(sc, sizeof(sc), "%.1f", r.scalar_ns);
    std::snprintf(si, sizeof(si), "%.1f", r.simd_ns);
    std::snprintf(sp, sizeof(sp), "%.2f", speedup);
    std::snprintf(bu, sizeof(bu), "%.1f", kBudget);
    csv.add_row({r.kernel, std::to_string(kBits), sc, si, sp, r.enforced ? bu : ""});
  }
  std::printf("wrote micro_datastructures.csv\n");
  return failures;
}

}  // namespace
}  // namespace mrbc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return mrbc::frontier_scan_gate();
}
