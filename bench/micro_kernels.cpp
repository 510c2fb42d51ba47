// Direction-optimization budget for the forward phase, enforced: on a
// power-law input in the dense-frontier regime, running with
// Direction::kAuto must cut forward compute time by >= 1.3x versus forced
// kPush, and must actually take the pull path (pull_rounds > 0 — a
// heuristic that never fires would pass a timing gate by luck).
//
// What "dense-frontier regime" means per engine:
//   - MRBC at batch_size 1: source batching pipelines a vertex's per-source
//     sends across rounds (fire round d + l + 1), so at most one (lid, sidx)
//     entry per lid fires per round — larger batches thin each round's
//     frontier while keeping most vertices live, and kAuto correctly stays
//     in push. At batch 1 the schedule degenerates to level-synchronous BFS:
//     mid-BFS frontiers cover most of a power-law graph, finalized vertices
//     are skipped in O(1) off their zero avail word, and pull wins. The
//     gated row runs pull_alpha 2 (enter pull at frontier degree >= half the
//     live in-degree, the measured break-even on this kernel); the default
//     alpha 1 is deliberately conservative so default-config batched runs
//     never mispull.
//   - SBBC (single source, level-synchronous): the classic Beamer regime;
//     defaults already pull on the dense mid-levels.
//
// Batched MRBC and road-network rows are informational parity checks: their
// frontiers stay thin relative to the live graph, so kAuto should stay in
// push and the speedup should hover around 1x.
//
// The gate is meaningful at any thread count — the pull win is algorithmic
// (O(1) skips of finalized vertices plus word-wide source masks), not a
// parallelism artifact. Writes micro_kernels.csv; compare_bench --micro
// gates the CSV against the committed baseline and additionally hard-fails
// if pull_rounds drifts (it is bit-deterministic).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "baselines/sbbc.h"
#include "core/mrbc.h"
#include "graph/generators.h"
#include "util/csv.h"

namespace mrbc::bench {
namespace {

struct Sample {
  double forward_s = 0;
  std::size_t pull_rounds = 0;
};

struct Case {
  std::string workload;
  std::string engine;  ///< "mrbc" or "sbbc"
  const graph::Graph* graph = nullptr;
  std::uint32_t batch = 1;    ///< mrbc only
  std::uint32_t num_sources = 16;
  double alpha = 0;           ///< 0 = engine default
  double budget = 0;          ///< enforced min speedup; 0 = informational
};

Sample run_once(const Case& c, core::Direction dir) {
  std::vector<graph::VertexId> sources;
  for (graph::VertexId s = 0; s < c.num_sources; ++s) sources.push_back(s);
  if (c.engine == "mrbc") {
    core::MrbcOptions opts;
    opts.num_hosts = 4;
    opts.batch_size = c.batch;
    opts.direction = dir;
    if (c.alpha > 0) {
      opts.pull_alpha = c.alpha;
      opts.pull_beta = c.alpha * 2;
    }
    const auto run = core::mrbc_bc(*c.graph, sources, opts);
    return {run.forward.phases.compute_seconds, run.forward_pull_rounds};
  }
  baselines::SbbcOptions opts;
  opts.num_hosts = 4;
  opts.direction = dir;
  if (c.alpha > 0) {
    opts.pull_alpha = c.alpha;
    opts.pull_beta = c.alpha * 2;
  }
  const auto run = baselines::sbbc_bc(*c.graph, sources, opts);
  return {run.forward.phases.compute_seconds, run.forward_pull_rounds};
}

Sample min_of(int reps, const std::function<Sample()>& fn) {
  Sample best = fn();
  for (int i = 1; i < reps; ++i) {
    const Sample s = fn();
    if (s.forward_s < best.forward_s) best.forward_s = s.forward_s;
    best.pull_rounds = s.pull_rounds;  // deterministic: identical every rep
  }
  return best;
}

int run() {
  int failures = 0;
  util::CsvWriter csv("micro_kernels.csv",
                      {"workload", "engine", "batch", "push_forward_s", "auto_forward_s",
                       "speedup", "pull_rounds", "budget"});

  graph::RmatParams p;
  p.scale = 14;
  p.seed = 9;
  const graph::Graph rmat14 = graph::rmat(p);
  const graph::Graph road = graph::road_grid(64, 64, 0.05, 9);

  const std::vector<Case> cases = {
      {"rmat14-dense", "mrbc", &rmat14, 1, 16, 2.0, 1.3},
      {"rmat14", "sbbc", &rmat14, 1, 16, 0, 1.3},
      {"rmat14-batched", "mrbc", &rmat14, 64, 64, 0, 0},
      {"road64x64", "mrbc", &road, 64, 64, 0, 0},
  };
  for (const Case& c : cases) {
    // One warm-up run, then min-of-3 to shed noise.
    run_once(c, core::Direction::kPush);
    const Sample push = min_of(3, [&] { return run_once(c, core::Direction::kPush); });
    const Sample opt = min_of(3, [&] { return run_once(c, core::Direction::kAuto); });
    const double speedup = opt.forward_s > 0 ? push.forward_s / opt.forward_s : 1.0;
    std::printf("%-14s %s batch %2u  push %8.4f s  auto %8.4f s  speedup %5.2fx  "
                "pull_rounds %zu%s\n",
                c.workload.c_str(), c.engine.c_str(), c.batch, push.forward_s, opt.forward_s,
                speedup, opt.pull_rounds,
                c.budget > 0 ? "  (budget >= 1.3x, pull_rounds > 0)" : "");
    if (c.budget > 0) {
      if (speedup < c.budget) {
        std::printf("FAIL: %s/%s forward speedup under %.1fx\n", c.workload.c_str(),
                    c.engine.c_str(), c.budget);
        ++failures;
      }
      if (opt.pull_rounds == 0) {
        std::printf("FAIL: kAuto never pulled on %s/%s (heuristic dead)\n", c.workload.c_str(),
                    c.engine.c_str());
        ++failures;
      }
    }
    char push_buf[32], auto_buf[32], spd_buf[32], budget_buf[32];
    std::snprintf(push_buf, sizeof(push_buf), "%.5f", push.forward_s);
    std::snprintf(auto_buf, sizeof(auto_buf), "%.5f", opt.forward_s);
    std::snprintf(spd_buf, sizeof(spd_buf), "%.2f", speedup);
    std::snprintf(budget_buf, sizeof(budget_buf), "%.1f", c.budget);
    csv.add_row({c.workload, c.engine, std::to_string(c.batch), push_buf, auto_buf, spd_buf,
                 std::to_string(opt.pull_rounds), c.budget > 0 ? budget_buf : ""});
  }
  std::printf("wrote micro_kernels.csv\n");
  return failures;
}

}  // namespace
}  // namespace mrbc::bench

int main() { return mrbc::bench::run(); }
