// Direction-optimization budget for SBBC's forward phase, enforced: on a
// power-law input, running with Direction::kAuto must cut forward compute
// time by >= 1.3x versus forced kPush, and must actually take the pull path
// (pull_rounds > 0 — a heuristic that never fires would pass a timing gate
// by luck).
//
// SBBC is level-synchronous (one source, one BFS level per round), so its
// mid-BFS frontiers cover most of a power-law graph: the classic Beamer
// regime, where kAuto's thresholds pull on the dense levels. MRBC has
// no pull drain to gate: delayed sync fires at most one entry per vertex
// per round, so its frontiers stay thin next to the live graph
// (core/mrbc.h).
//
// Timing: one warm-up run, then kPairs push/auto pairs, alternating which
// side runs first so drift in the machine's speed hits both sides alike.
// The gate reads the median of the per-pair push/auto ratios; the CSV's
// time columns are the per-side medians. The pool runs one thread: the
// pull win is algorithmic (less scan work), while at 4 threads each
// host-round is a sub-millisecond parallel section whose scheduling jitter
// on a shared machine moved the median ratio between 1.17x and 1.45x.
// Writes micro_kernels.csv; compare_bench --micro gates the CSV against the
// committed baseline and additionally hard-fails if pull_rounds drifts (it
// is bit-deterministic).

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/sbbc.h"
#include "graph/generators.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mrbc::bench {
namespace {

using baselines::Direction;

constexpr int kPairs = 15;
constexpr double kBudget = 1.3;

struct Sample {
  double forward_s = 0;
  std::size_t pull_rounds = 0;
};

Sample run_once(const graph::Graph& g, Direction dir) {
  std::vector<graph::VertexId> sources;
  for (graph::VertexId s = 0; s < 16; ++s) sources.push_back(s);
  baselines::SbbcOptions opts;
  opts.num_hosts = 4;
  opts.direction = dir;
  const auto run = baselines::sbbc_bc(g, sources, opts);
  return {run.forward.phases.compute_seconds, run.forward_pull_rounds};
}

int run() {
  util::ThreadPool::set_global_threads(1);
  graph::RmatParams p;
  p.scale = 14;
  p.seed = 9;
  const graph::Graph rmat14 = graph::rmat(p);

  run_once(rmat14, Direction::kPush);  // warm-up
  std::vector<double> push_s, auto_s, ratios;
  std::size_t pull_rounds = 0;
  for (int i = 0; i < kPairs; ++i) {
    Sample push, opt;
    if (i % 2 == 0) {
      push = run_once(rmat14, Direction::kPush);
      opt = run_once(rmat14, Direction::kAuto);
    } else {
      opt = run_once(rmat14, Direction::kAuto);
      push = run_once(rmat14, Direction::kPush);
    }
    push_s.push_back(push.forward_s);
    auto_s.push_back(opt.forward_s);
    ratios.push_back(opt.forward_s > 0 ? push.forward_s / opt.forward_s : 1.0);
    pull_rounds = opt.pull_rounds;  // deterministic: identical every run
  }
  const double push_med = util::quantile(push_s, 0.5);
  const double auto_med = util::quantile(auto_s, 0.5);
  const double speedup = util::quantile(ratios, 0.5);
  std::printf("rmat14 sbbc  push %8.4f s  auto %8.4f s  (medians of %d pairs)  speedup %5.2fx "
              "[%.2f, %.2f]  pull_rounds %zu  (budget >= %.1fx, pull_rounds > 0)\n",
              push_med, auto_med, kPairs, speedup, util::quantile(ratios, 0.25),
              util::quantile(ratios, 0.75), pull_rounds, kBudget);
  int failures = 0;
  if (speedup < kBudget) {
    std::printf("FAIL: rmat14/sbbc median forward speedup under %.1fx\n", kBudget);
    ++failures;
  }
  if (pull_rounds == 0) {
    std::printf("FAIL: kAuto never pulled on rmat14/sbbc (heuristic dead)\n");
    ++failures;
  }

  util::CsvWriter csv("micro_kernels.csv",
                      {"workload", "engine", "batch", "push_forward_s", "auto_forward_s",
                       "speedup", "pull_rounds", "budget"});
  char push_buf[32], auto_buf[32], spd_buf[32], budget_buf[32];
  std::snprintf(push_buf, sizeof(push_buf), "%.5f", push_med);
  std::snprintf(auto_buf, sizeof(auto_buf), "%.5f", auto_med);
  std::snprintf(spd_buf, sizeof(spd_buf), "%.2f", speedup);
  std::snprintf(budget_buf, sizeof(budget_buf), "%.1f", kBudget);
  csv.add_row({"rmat14", "sbbc", "1", push_buf, auto_buf, spd_buf, std::to_string(pull_rounds),
               budget_buf});
  std::printf("wrote micro_kernels.csv\n");
  return failures;
}

}  // namespace
}  // namespace mrbc::bench

int main() { return mrbc::bench::run(); }
