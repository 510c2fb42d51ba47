// Reproduces Figure 2 of the paper: breakdown of execution time into
// computation and non-overlapped communication, with the communication
// volume annotated on each bar — small inputs at 4 simulated hosts (paper:
// 32), large inputs at 32 simulated hosts (paper: 256), for SBBC and MRBC.
//
// Expected shape (paper): MRBC's computation time is higher (the
// per-source array + distance map cost more than SBBC's flat labels), but
// its communication time and volume are substantially lower (2.8x comm
// time reduction on average), which is what wins at scale.

#include <cstdio>
#include <vector>

#include "baselines/sbbc.h"
#include "core/mrbc.h"
#include "report.h"
#include "util/stats.h"
#include "workloads.h"

namespace mrbc::bench {
namespace {

/// Per-run seconds of one engine on one input, plus the last run's totals
/// for the deterministic volume and message columns.
struct Times {
  std::vector<double> compute, comm, fwd, bwd;
  sim::RunStats last;

  void add(const core::BcRun& run) {
    last = run.total();
    compute.push_back(last.phases.compute_seconds);
    comm.push_back(last.phases.comm_seconds);
    fwd.push_back(run.forward.phases.compute_seconds);
    bwd.push_back(run.backward.phases.compute_seconds);
  }
};

void run() {
  // Each input runs both engines kRuns times, alternating which goes first,
  // so drift in the machine's speed hits both alike; a single run takes
  // milliseconds and cannot resolve a before/after. The time columns are
  // medians, and compute_q1_s / compute_q3_s bound compute_s's spread.
  // fwd_compute_s / bwd_compute_s split compute_s by phase, so a change to
  // one phase's kernel is attributable without re-running anything. Volume
  // and messages are deterministic.
  constexpr int kRuns = 7;
  Report report("Figure 2: computation vs non-overlapped communication (+ comm volume)",
                "fig2_breakdown.csv",
                {"input", "hosts", "algo", "compute_s", "comm_s", "volume", "msgs",
                 "fwd_compute_s", "bwd_compute_s", "compute_q1_s", "compute_q3_s"},
                13);
  std::vector<double> comm_ratios;
  for (const Workload& w : all_workloads()) {
    const auto hosts = static_cast<partition::HostId>(w.large ? 32 : 4);
    partition::Partition part(w.graph, hosts, partition::Policy::kCartesianVertexCut);

    // Both engines run the production wire codec; comm_s and volume
    // reflect the compressed bytes (decoded state is mode-invariant).
    baselines::SbbcOptions sopts;
    sopts.cluster.codec = comm::CodecMode::kFull;
    core::MrbcOptions mopts;
    mopts.batch_size = w.large ? 16 : 32;
    if (w.name == "road-s") mopts.batch_size = 8;
    mopts.cluster.codec = comm::CodecMode::kFull;

    Times sbbc_t, mrbc_t;
    for (int i = 0; i < kRuns; ++i) {
      const auto run_sbbc = [&] { sbbc_t.add(baselines::sbbc_bc(part, w.sources, sopts)); };
      const auto run_mrbc = [&] { mrbc_t.add(core::mrbc_bc(part, w.sources, mopts)); };
      if (i % 2 == 0) {
        run_sbbc();
        run_mrbc();
      } else {
        run_mrbc();
        run_sbbc();
      }
    }

    // The bars consume the engine's per-phase attribution rather than the
    // legacy compute/network aggregates: "comm_s" is modeled sync time
    // only, with recovery/checkpoint overheads kept out of the comparison.
    const auto q = [](const std::vector<double>& v, double at) {
      return util::fmt(util::quantile(v, at), 4);
    };
    const auto add_row = [&](const char* algo, const Times& t) {
      report.add({w.name, std::to_string(hosts), algo, q(t.compute, 0.5), q(t.comm, 0.5),
                  util::fmt_bytes(t.last.bytes), std::to_string(t.last.messages), q(t.fwd, 0.5),
                  q(t.bwd, 0.5), q(t.compute, 0.25), q(t.compute, 0.75)});
    };
    add_row("SBBC", sbbc_t);
    add_row("MRBC", mrbc_t);
    comm_ratios.push_back(util::quantile(sbbc_t.comm, 0.5) / util::quantile(mrbc_t.comm, 0.5));
  }
  report.finish();
  std::printf("Geomean SBBC/MRBC communication-time ratio: %.1fx (paper reports 2.8x)\n",
              util::geomean_of(comm_ratios));
}

}  // namespace
}  // namespace mrbc::bench

int main() {
  mrbc::bench::run();
  return 0;
}
