// Ablation of the Section 4.3 optimizations:
//   (1) delayed synchronization — masters broadcast labels only in the
//       round where they are provably final, vs Gluon's default of
//       shipping every tracked update;
//   (2) the data-structure choice for the per-vertex distance index —
//       FlatMap (sorted vector, the paper's boost::flat_map) vs
//       std::map (red-black tree), measured on the MRBC access pattern
//       (footnote 1 of the paper).

#include <cstdio>
#include <cstring>
#include <map>

#include "comm/codec.h"
#include "core/mrbc.h"
#include "report.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workloads.h"

namespace mrbc::bench {
namespace {

/// Runs MRBC with and without delayed synchronization on every workload.
/// The gate: delayed sync changes only the traffic, so a run with
/// pipelining anomalies, or an eager run whose scores (bitwise) or round
/// count differ from the delayed run's, counts as a failure.
int delayed_sync_ablation() {
  Report report("Ablation: delayed synchronization (Section 4.3)",
                "ablation_delayed_sync.csv",
                {"input", "mode", "volume", "msgs", "comm_s", "rounds"}, 13);
  std::vector<double> savings;
  int failures = 0;
  for (const Workload& w : all_workloads()) {
    const auto hosts = static_cast<partition::HostId>(w.large ? 16 : 4);
    partition::Partition part(w.graph, hosts, partition::Policy::kCartesianVertexCut);
    core::MrbcOptions base;
    base.batch_size = 16;
    core::MrbcOptions eager = base;
    eager.delayed_sync = false;
    auto delayed = core::mrbc_bc(part, w.sources, base);
    auto naive = core::mrbc_bc(part, w.sources, eager);
    if (delayed.anomalies != 0 || naive.anomalies != 0) {
      std::printf("FAIL: %s pipelining anomalies (delayed %zu, eager %zu)\n", w.name.c_str(),
                  delayed.anomalies, naive.anomalies);
      ++failures;
    }
    if (std::memcmp(delayed.result.bc.data(), naive.result.bc.data(),
                    delayed.result.bc.size() * sizeof(double)) != 0) {
      std::printf("FAIL: %s eager scores differ from delayed\n", w.name.c_str());
      ++failures;
    }
    if (naive.total().rounds != delayed.total().rounds) {
      std::printf("FAIL: %s eager rounds %zu vs delayed %zu\n", w.name.c_str(),
                  naive.total().rounds, delayed.total().rounds);
      ++failures;
    }
    report.add({w.name, "delayed", util::fmt_bytes(delayed.total().bytes),
                std::to_string(delayed.total().messages),
                util::fmt(delayed.total().network_seconds, 4),
                std::to_string(delayed.total().rounds)});
    report.add({w.name, "eager", util::fmt_bytes(naive.total().bytes),
                std::to_string(naive.total().messages),
                util::fmt(naive.total().network_seconds, 4),
                std::to_string(naive.total().rounds)});
    savings.push_back(static_cast<double>(naive.total().bytes) /
                      static_cast<double>(delayed.total().bytes));
  }
  report.finish();
  std::printf("Geomean volume reduction from delayed sync: %.2fx\n", util::geomean_of(savings));
  return failures;
}

/// Sweeps the wire codec modes across the paper workloads. The gate is a
/// regression tripwire, not a benchmark: kFull must keep a >= 1.5x geomean
/// volume reduction on the power-law inputs (road grids have near-random
/// presence sets and are reported but not gated). Returns nonzero on a
/// gate failure so CI catches a codec that quietly stopped compressing.
int codec_ablation() {
  Report report("Ablation: wire codec (varint/delta/frame-of-reference, Gluon-style)",
                "ablation_codec.csv",
                {"input", "codec", "volume", "raw_volume", "ratio", "comm_s", "rounds"}, 13);
  std::vector<double> powerlaw_reductions;
  int failures = 0;
  for (const Workload& w : all_workloads()) {
    const auto hosts = static_cast<partition::HostId>(w.large ? 16 : 4);
    partition::Partition part(w.graph, hosts, partition::Policy::kCartesianVertexCut);
    std::size_t raw_wire = 0;
    std::size_t raw_rounds = 0;
    for (const comm::CodecMode mode :
         {comm::CodecMode::kRaw, comm::CodecMode::kMetadataOnly, comm::CodecMode::kFull}) {
      core::MrbcOptions opts;
      opts.batch_size = 16;
      opts.cluster.codec = mode;
      auto run = core::mrbc_bc(part, w.sources, opts);
      const auto t = run.total();
      if (mode == comm::CodecMode::kRaw) {
        raw_wire = t.bytes;
        raw_rounds = t.rounds;
      } else if (t.rounds != raw_rounds) {
        // Compression must never change the schedule.
        std::printf("FAIL: %s %s changed round count (%zu vs %zu)\n", w.name.c_str(),
                    comm::codec_mode_name(mode), t.rounds, raw_rounds);
        ++failures;
      }
      if (mode == comm::CodecMode::kFull && w.name != "road-s") {
        powerlaw_reductions.push_back(static_cast<double>(raw_wire) /
                                      static_cast<double>(t.bytes));
      }
      report.add({w.name, comm::codec_mode_name(mode), util::fmt_bytes(t.bytes),
                  util::fmt_bytes(t.raw_bytes),
                  util::fmt(static_cast<double>(t.raw_bytes) / static_cast<double>(t.bytes), 2),
                  util::fmt(t.network_seconds, 4), std::to_string(t.rounds)});
    }
  }
  report.finish();
  const double geomean = util::geomean_of(powerlaw_reductions);
  std::printf("Geomean volume reduction from kFull codec (power-law inputs): %.2fx "
              "(gate >= 1.5x)\n",
              geomean);
  if (geomean < 1.5) {
    std::printf("FAIL: codec volume reduction under 1.5x\n");
    ++failures;
  }
  return failures;
}

/// Replays an MRBC-like access trace against both map types: mixed inserts,
/// lookups by distance, and full in-order scans (the per-round position
/// walk), which is where the sorted vector's locality would show.
template <typename Map>
double time_map_trace(int num_vertices, int ops_per_vertex) {
  util::Xoshiro256 rng(7);
  util::Timer timer;
  double checksum = 0;
  for (int v = 0; v < num_vertices; ++v) {
    Map map;
    for (int i = 0; i < ops_per_vertex; ++i) {
      const auto d = static_cast<std::uint32_t>(rng.next_bounded(48));
      map[d] += 1.0;
      // per-round scan in distance order (the l_v position computation)
      for (const auto& [dist, count] : map) checksum += count * 1e-9 + dist * 0.0;
      auto it = map.find(static_cast<std::uint32_t>(rng.next_bounded(48)));
      if (it != map.end()) checksum += it->second * 1e-9;
    }
  }
  (void)checksum;
  return timer.seconds();
}

void map_type_ablation() {
  Report report("Ablation: FlatMap (sorted vector) vs std::map (RB tree) on the M_v trace",
                "ablation_map_type.csv", {"container", "seconds", "relative"}, 16);
  const double flat = time_map_trace<util::FlatMap<std::uint32_t, double>>(2000, 48);
  const double tree = time_map_trace<std::map<std::uint32_t, double>>(2000, 48);
  report.add({"flat_map", util::fmt(flat, 4), "1.00"});
  report.add({"std::map", util::fmt(tree, 4), util::fmt(tree / flat, 2)});
  report.finish();
  std::printf("FlatMap is %.2fx %s than std::map on this trace "
              "(paper footnote 1 credits the flat map's locality)\n",
              tree > flat ? tree / flat : flat / tree, tree > flat ? "faster" : "slower");
}

}  // namespace
}  // namespace mrbc::bench

int main() {
  int failures = mrbc::bench::delayed_sync_ablation();
  failures += mrbc::bench::codec_ablation();
  mrbc::bench::map_type_ablation();
  return failures;
}
