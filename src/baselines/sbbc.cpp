#include "baselines/sbbc.h"

#include <algorithm>
#include <optional>

#include "comm/substrate.h"
#include "core/staged_drain.h"
#include "engine/fault.h"
#include "engine/recovery.h"
#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/threading.h"

namespace mrbc::baselines {

using comm::Substrate;
using graph::kInfDist;
using partition::HostId;
using partition::Partition;

/// Forward-phase proxy label. Named (not TU-local) so the wire codec below
/// can specialize comm::ValueCodec for it.
struct DistSigma {
  std::uint32_t dist = kInfDist;
  double sigma = 0.0;
};

}  // namespace mrbc::baselines

namespace mrbc::comm {

/// kFull wire format for the SBBC forward plane: the interleaved struct is
/// split into a dist sub-plane (frame-of-reference + varint — BFS levels
/// cluster tightly within a round) followed by a sigma sub-plane (tagged
/// f64 — path counts are integral). kRaw/kMetadataOnly ship the packed
/// struct bytes exactly as write_vector would, padding included.
template <>
struct ValueCodec<baselines::DistSigma> {
  static void write_plane(CodecWriter& w, const std::vector<baselines::DistSigma>& values) {
    if (!compress_values(w.mode())) {
      w.pod_plane(values);
      return;
    }
    w.meta_u64(values.size());
    if (values.empty()) return;
    std::uint32_t min = values[0].dist;
    for (const auto& v : values) min = std::min(min, v.dist);
    w.buffer().write_varint(min, 0);
    // Raw-equivalent per dist is the struct bytes the sigma doesn't cover
    // (field + alignment padding), so raw_bytes matches the kRaw wire.
    constexpr std::size_t kDistRawBytes = sizeof(baselines::DistSigma) - sizeof(double);
    for (const auto& v : values) w.buffer().write_varint(v.dist - min, kDistRawBytes);
    for (const auto& v : values) w.f64(v.sigma);
  }

  static std::vector<baselines::DistSigma> read_plane(CodecReader& r) {
    if (!compress_values(r.mode())) return r.pod_plane<baselines::DistSigma>();
    const std::uint64_t n = r.meta_u64();
    if (n > r.buffer().remaining()) {
      throw std::out_of_range("codec: plane length exceeds buffer");
    }
    std::vector<baselines::DistSigma> values(n);
    if (n == 0) return values;
    const std::uint64_t min = r.buffer().read_varint();
    for (auto& v : values) {
      const std::uint64_t d = min + r.buffer().read_varint();
      if (d > 0xFFFFFFFFull) {
        throw std::out_of_range("codec: u32 plane value out of range");
      }
      v.dist = static_cast<std::uint32_t>(d);
    }
    for (auto& v : values) v.sigma = r.f64();
    return values;
  }
};

}  // namespace mrbc::comm

namespace mrbc::baselines {

namespace {

/// kAuto's Beamer alpha/beta thresholds (choose_pull). Their basis is the
/// static local edge count: settledness is distance-based (the pull skips
/// targets below the frontier level), so the dense mid-BFS levels are the
/// rounds whose frontier degree is a large fraction of the local graph.
constexpr double kPullAlpha = 2.0;
constexpr double kPullBeta = 4.0;

/// One source's level-synchronous execution over the partition.
class SourceRunner final : public sim::Checkpointable {
 public:
  SourceRunner(const Partition& part, VertexId source, const SbbcOptions& opts)
      : part_(part), source_(source), opts_(opts), substrate_(part) {
    substrate_.set_delivery(opts_.cluster.delivery());
    if (opts_.cluster.membership != nullptr) {
      substrate_.set_placement(opts_.cluster.membership->logical_to_physical());
    }
    const HostId H = part.num_hosts();
    labels_.resize(H);
    delta_.resize(H);
    worklist_.resize(H);
    self_sched_.resize(H);
    in_frontier_.resize(H);
    masters_by_level_.resize(H);
    pull_frontier_.resize(H);
    pull_ord_.resize(H);
    pull_recs_.resize(H);
    last_pull_.assign(H, 0);
    local_edges_.assign(H, 0);
    pull_rounds_.assign(H, 0);
    scratch_.resize(H);
    for (HostId h = 0; h < H; ++h) {
      const auto np = part.host(h).num_proxies();
      labels_[h].assign(np, {});
      delta_[h].assign(np, 0.0);
      in_frontier_[h].resize(np);
      pull_frontier_[h].resize(np);
      pull_ord_[h].assign(np, 0);
      local_edges_[h] = part.host(h).local.num_edges();
    }
  }

  sim::RunStats run_forward() {
    obs::Span phase_span(obs::Category::kAlgo, "forward");
    const HostId mh = part_.master_host(source_);
    const VertexId lid = part_.local_id(mh, source_);
    labels_[mh][lid] = {0, 1.0};
    in_frontier_[mh].set(lid);
    self_sched_[mh].push_back(lid);
    substrate_.flag_broadcast(mh, lid);

    ForwardAccessor acc{*this};
    sim::BspLoop loop(part_.num_hosts(), opts_.cluster);
    return loop.run(
        [&](std::size_t) { return substrate_.sync(acc); },
        [&](HostId h, std::size_t) { return compute_forward(h); },
        [&] { return substrate_.any_pending(); }, this);
  }

  sim::RunStats run_backward() {
    obs::Span phase_span(obs::Category::kAlgo, "backward");
    // Bucket master vertices by BFS level; the backward sweep fires levels
    // from the deepest down, one level per round.
    max_level_ = 0;
    for (HostId h = 0; h < part_.num_hosts(); ++h) {
      const auto& hg = part_.host(h);
      for (VertexId l = 0; l < hg.num_proxies(); ++l) {
        if (hg.is_master[l] && labels_[h][l].dist != kInfDist) {
          max_level_ = std::max(max_level_, labels_[h][l].dist);
        }
      }
    }
    util::for_each_index(part_.num_hosts(), opts_.cluster.parallel_hosts, [&](std::size_t hi) {
      const auto h = static_cast<HostId>(hi);
      const auto& hg = part_.host(h);
      masters_by_level_[h].assign(max_level_ + 1, {});
      for (VertexId l = 0; l < hg.num_proxies(); ++l) {
        if (hg.is_master[l] && labels_[h][l].dist != kInfDist) {
          masters_by_level_[h][labels_[h][l].dist].push_back(l);
        }
      }
      schedule_backward(h, 1);
    });
    BackwardAccessor acc{*this};
    sim::BspLoop loop(part_.num_hosts(), opts_.cluster);
    return loop.run(
        [&](std::size_t) { return substrate_.sync(acc); },
        [&](HostId h, std::size_t round) {
          return compute_backward(h, static_cast<std::uint32_t>(round));
        },
        [&] { return substrate_.any_pending(); }, this);
  }

  // Coordinated snapshot for crash recovery: labels, dependencies, queues,
  // frontier bitsets, level buckets, and the substrate's flag/sequence
  // state. DistSigma is a POD, so per-host vectors go through write_vector.
  void save_checkpoint(util::SendBuffer& buf) const override {
    substrate_.save_state(buf);
    const HostId H = part_.num_hosts();
    for (HostId h = 0; h < H; ++h) {
      buf.write_vector(labels_[h]);
      buf.write_vector(delta_[h]);
      buf.write_vector(worklist_[h]);
      buf.write_vector(self_sched_[h]);
      buf.write_bitset(in_frontier_[h]);
      buf.write<std::uint64_t>(masters_by_level_[h].size());
      for (const auto& level : masters_by_level_[h]) buf.write_vector(level);
    }
    buf.write<std::uint32_t>(max_level_);
  }

  void on_membership_change(const sim::Membership& membership) override {
    substrate_.set_placement(membership.logical_to_physical());
  }

  void restore_checkpoint(util::RecvBuffer& buf) override {
    substrate_.restore_state(buf);
    const HostId H = part_.num_hosts();
    for (HostId h = 0; h < H; ++h) {
      labels_[h] = buf.read_vector<DistSigma>();
      delta_[h] = buf.read_vector<double>();
      worklist_[h] = buf.read_vector<VertexId>();
      self_sched_[h] = buf.read_vector<VertexId>();
      in_frontier_[h] = buf.read_bitset();
      const auto levels = buf.read<std::uint64_t>();
      masters_by_level_[h].assign(levels, {});
      for (auto& level : masters_by_level_[h]) level = buf.read_vector<VertexId>();
      // Derived round-local state: the pull frontier is empty between
      // rounds, which is when checkpoints are taken. Snapshot bytes are
      // untouched by the direction machinery.
      pull_frontier_[h].reset_all();
    }
    max_level_ = buf.read<std::uint32_t>();
  }

  /// Host-rounds the forward phase drained in pull mode (diagnostic).
  std::size_t pull_rounds() const {
    std::size_t total = 0;
    for (std::size_t p : pull_rounds_) total += p;
    return total;
  }

  void harvest(BcResult& out, std::size_t source_idx) const {
    for (HostId h = 0; h < part_.num_hosts(); ++h) {
      const auto& hg = part_.host(h);
      for (VertexId l = 0; l < hg.num_proxies(); ++l) {
        if (!hg.is_master[l]) continue;
        const VertexId gv = hg.local_to_global[l];
        if (gv != source_ && labels_[h][l].dist != kInfDist) out.bc[gv] += delta_[h][l];
        if (opts_.collect_tables) {
          out.dist[source_idx][gv] = labels_[h][l].dist;
          out.sigma[source_idx][gv] = labels_[h][l].sigma;
          out.delta[source_idx][gv] = delta_[h][l];
        }
      }
    }
  }

 private:
  void combine_forward_impl(HostId h, VertexId lid, std::uint32_t d, double sigma,
                            std::vector<core::OrdLid>* staged, std::uint64_t ord) {
    DistSigma& s = labels_[h][lid];
    if (d > s.dist) return;
    if (d < s.dist) {
      s.dist = d;
      s.sigma = sigma;
      if (part_.host(h).is_master[lid]) {
        // The master joins the next round's frontier. During a staged
        // replay the append is captured with its push ordinal and merged
        // into self_sched_ in sequential order afterwards.
        if (!in_frontier_[h].test(lid)) {
          in_frontier_[h].set(lid);
          if (staged) {
            staged->push_back({ord, lid});
          } else {
            self_sched_[h].push_back(lid);
          }
          substrate_.flag_broadcast(h, lid);
        }
      }
    } else {
      s.sigma += sigma;
    }
    if (!part_.host(h).is_master[lid]) substrate_.flag_reduce(h, lid);
  }

  void combine_forward(HostId h, VertexId lid, std::uint32_t d, double sigma) {
    combine_forward_impl(h, lid, d, sigma, nullptr, 0);
  }

  /// Direction of one staged forward round: the frontier's out-degree sum
  /// when the round pulls, nullopt when it pushes. kAuto is Beamer's
  /// alpha/beta hysteresis over the pull's scan cost, the host's local edge
  /// count: enter pull at frontier degree >= edges / kPullAlpha, stay while
  /// it is >= edges / kPullBeta, never pull on a host without local edges.
  /// The inputs are integers derived from the drain list and the immutable
  /// local topology, so every thread count (and a crash-replayed round)
  /// picks the same direction; the frontier degree is summed only when the
  /// rule needs it.
  std::optional<std::uint64_t> choose_pull(HostId h, const std::vector<VertexId>& wl,
                                           const std::vector<VertexId>& ss, std::size_t grain) {
    const auto& hg = part_.host(h);
    const auto frontier_degree = [&] {
      return util::ThreadPool::global().parallel_reduce(
          0, wl.size() + ss.size(), grain, std::uint64_t{0},
          [&](std::size_t ei) {
            const VertexId lid = ei < wl.size() ? wl[ei] : ss[ei - wl.size()];
            return static_cast<std::uint64_t>(hg.local.out_degree(lid));
          },
          [](std::uint64_t a, std::uint64_t b) { return a + b; });
    };
    std::optional<std::uint64_t> fdeg;
    if (opts_.direction == Direction::kPull) {
      fdeg = frontier_degree();
    } else if (opts_.direction == Direction::kAuto && local_edges_[h] != 0) {
      const std::uint64_t d = frontier_degree();
      const double edges = static_cast<double>(local_edges_[h]);
      if (static_cast<double>(d) >= edges / (last_pull_[h] ? kPullBeta : kPullAlpha)) {
        fdeg = d;
      }
    }
    last_pull_[h] = fdeg ? 1 : 0;
    return fdeg;
  }

  /// Pull drain of one staged forward round. Instead of iterating the
  /// frontier and relaxing out-edges, each 64-lid replay range scans its
  /// targets and gathers from frontier in-neighbors, recording one PushRec
  /// per hit tagged with the frontier entry's drain ordinal. Local adjacency
  /// is sorted ascending, so push's (entry, edge position) order is
  /// (drain ordinal, target) order: sorting each range's records that way
  /// and replaying them through combine_forward_impl applies push's exact
  /// sequence. The only targets skipped are those with dist < dmin + 1
  /// (dmin = the frontier's minimum level): they can only receive strictly
  /// stale pushes, which the push drain discards with zero side effects.
  /// Work items are charged as the frontier's out-degree sum, push's
  /// per-edge count, so scores, stats, wire traffic and checkpoint bytes
  /// are bit-identical to push. Generation and replay are separated by a
  /// barrier so pushed values read pre-replay labels, exactly like push's
  /// Phase-A snapshots.
  sim::HostWork compute_forward_pull(HostId h, const std::vector<VertexId>& wl,
                                     const std::vector<VertexId>& ss, std::uint64_t fdeg) {
    const auto& hg = part_.host(h);
    const std::size_t total = wl.size() + ss.size();
    util::DynamicBitset& frontier = pull_frontier_[h];
    std::vector<std::uint32_t>& ford = pull_ord_[h];
    std::uint32_t dmin = kInfDist;
    for (std::size_t ei = 0; ei < total; ++ei) {
      const VertexId lid = ei < wl.size() ? wl[ei] : ss[ei - wl.size()];
      if (!frontier.test(lid)) {
        frontier.set(lid);
        ford[lid] = static_cast<std::uint32_t>(ei);
      }
      dmin = std::min(dmin, labels_[h][lid].dist);
    }
    const std::size_t num_ranges = core::num_drain_ranges(hg.num_proxies());
    std::vector<std::vector<core::PushRec>>& range_recs = pull_recs_[h];
    if (range_recs.size() < num_ranges) range_recs.resize(num_ranges);
    util::ThreadPool::global().parallel_for(0, num_ranges, 1, [&](std::size_t r) {
      std::vector<core::PushRec>& recs = range_recs[r];
      recs.clear();
      const auto tb = static_cast<VertexId>(r << core::kRangeShift);
      const auto te = static_cast<VertexId>(
          std::min<std::size_t>(hg.num_proxies(), (r + 1) << core::kRangeShift));
      for (VertexId t = tb; t < te; ++t) {
        const std::uint32_t td = labels_[h][t].dist;
        if (td != kInfDist && td < dmin + 1) continue;  // live target: only stale pushes
        for (VertexId wv : hg.local.in_neighbors(t)) {
          if (!frontier.test(wv)) continue;
          const DistSigma& sw = labels_[h][wv];
          recs.push_back(core::PushRec{t, 0, sw.dist + 1, sw.sigma, ford[wv]});
        }
      }
      std::sort(recs.begin(), recs.end(), [](const core::PushRec& x, const core::PushRec& y) {
        return x.ord != y.ord ? x.ord < y.ord : x.target < y.target;
      });
    });
    // Barrier passed: every rec's value snapshot is pre-replay. Replay.
    std::vector<std::vector<core::OrdLid>> range_staged(num_ranges);
    util::ThreadPool::global().parallel_for(0, num_ranges, 1, [&](std::size_t r) {
      for (const core::PushRec& p : range_recs[r]) {
        combine_forward_impl(h, p.target, p.dist, p.value, &range_staged[r],
                             (static_cast<std::uint64_t>(p.ord) << 32) | p.target);
      }
    });
    core::merge_side_lists(range_staged, self_sched_[h]);
    for (std::size_t ei = 0; ei < total; ++ei) {
      frontier.reset(ei < wl.size() ? wl[ei] : ss[ei - wl.size()]);
    }
    ++pull_rounds_[h];
    sim::HostWork w;
    w.work_items = fdeg;
    w.active = false;
    return w;
  }

  sim::HostWork compute_forward(HostId h) {
    const auto& hg = part_.host(h);
    sim::HostWork w;
    // Take ownership of this round's frontier first: combine_forward may
    // schedule masters into self_sched_ for the NEXT round while we drain.
    std::vector<VertexId> wl = std::move(worklist_[h]);
    worklist_[h].clear();
    std::vector<VertexId> ss = std::move(self_sched_[h]);
    self_sched_[h].clear();
    const std::size_t total = wl.size() + ss.size();
    const std::size_t grain = std::max<std::size_t>(opts_.drain_grain, 1);
    if (total > grain) {
      if (const auto fdeg = choose_pull(h, wl, ss, grain)) {
        return compute_forward_pull(h, wl, ss, *fdeg);
      }
      // Two-phase staged drain (core/staged_drain.h; design comment in
      // core/mrbc.cpp). Snapshot-safe: a level-d frontier only produces
      // level d+1 labels, which a same-frontier entry's stale check
      // discards, so no drained entry's label changes mid-drain.
      const std::size_t num_ranges = core::num_drain_ranges(hg.num_proxies());
      std::vector<std::vector<core::OrdLid>> range_staged(num_ranges);
      w.work_items = core::staged_drain(
          scratch_[h], total, grain, num_ranges,
          [&](core::ChunkRecs& ch, std::vector<core::PushRec>& recs, std::size_t ei) {
            const VertexId lid = ei < wl.size() ? wl[ei] : ss[ei - wl.size()];
            const DistSigma s = labels_[h][lid];
            for (VertexId tl : hg.local.out_neighbors(lid)) {
              recs.push_back(core::PushRec{tl, 0, s.dist + 1, s.sigma,
                                           static_cast<std::uint32_t>(recs.size())});
              ++ch.work_items;
            }
          },
          [&](std::size_t r, const core::PushRec& p, std::uint64_t ord) {
            combine_forward_impl(h, p.target, p.dist, p.value, &range_staged[r], ord);
          });
      core::merge_side_lists(range_staged, self_sched_[h]);
    } else {
      auto drain = [&](const std::vector<VertexId>& list) {
        for (VertexId lid : list) {
          const DistSigma s = labels_[h][lid];
          for (VertexId tl : hg.local.out_neighbors(lid)) {
            combine_forward(h, tl, s.dist + 1, s.sigma);
            ++w.work_items;
          }
        }
      };
      drain(wl);
      drain(ss);
    }
    w.active = false;  // all progress is flag-driven
    return w;
  }

  void schedule_backward(HostId h, std::uint32_t round) {
    // Backward round t finalizes level max_level - t + 1.
    if (round > max_level_ + 1) return;
    const std::uint32_t level = max_level_ + 1 - round;
    if (level == 0) return;  // the source contributes no dependency upward
    for (VertexId lid : masters_by_level_[h][level]) {
      self_sched_[h].push_back(lid);
      substrate_.flag_broadcast(h, lid);
    }
  }

  sim::HostWork compute_backward(HostId h, std::uint32_t round) {
    const auto& hg = part_.host(h);
    sim::HostWork w;
    const std::size_t total = worklist_[h].size() + self_sched_[h].size();
    const std::size_t grain = std::max<std::size_t>(opts_.drain_grain, 1);
    if (total > grain) {
      // Staged drain: pushes target level d-1 predecessors while the drain
      // list is all level d, so Phase-A snapshots (including the delta read
      // in m) match the sequential interleaving exactly.
      w.work_items = core::staged_drain(
          scratch_[h], total, grain, core::num_drain_ranges(hg.num_proxies()),
          [&](core::ChunkRecs& ch, std::vector<core::PushRec>& recs, std::size_t ei) {
            const VertexId lid = ei < worklist_[h].size()
                                     ? worklist_[h][ei]
                                     : self_sched_[h][ei - worklist_[h].size()];
            const DistSigma& sv = labels_[h][lid];
            if (sv.dist == kInfDist || sv.dist == 0) return;
            const double m = (1.0 + delta_[h][lid]) / sv.sigma;
            for (VertexId pl : hg.local.in_neighbors(lid)) {
              const DistSigma& sw = labels_[h][pl];
              if (sw.dist != kInfDist && sw.dist + 1 == sv.dist) {
                recs.push_back(core::PushRec{pl, 0, 0, sw.sigma * m,
                                             static_cast<std::uint32_t>(recs.size())});
              }
              ++ch.work_items;
            }
          },
          [&](std::size_t, const core::PushRec& p, std::uint64_t) {
            delta_[h][p.target] += p.value;
            if (!hg.is_master[p.target]) substrate_.flag_reduce(h, p.target);
          });
    } else {
      auto drain = [&](const std::vector<VertexId>& list) {
        for (VertexId lid : list) {
          const DistSigma& sv = labels_[h][lid];
          if (sv.dist == kInfDist || sv.dist == 0) continue;
          const double m = (1.0 + delta_[h][lid]) / sv.sigma;
          for (VertexId wl : hg.local.in_neighbors(lid)) {
            const DistSigma& sw = labels_[h][wl];
            if (sw.dist != kInfDist && sw.dist + 1 == sv.dist) {
              delta_[h][wl] += sw.sigma * m;
              if (!hg.is_master[wl]) substrate_.flag_reduce(h, wl);
            }
            ++w.work_items;
          }
        }
      };
      drain(worklist_[h]);
      drain(self_sched_[h]);
    }
    worklist_[h].clear();
    self_sched_[h].clear();
    schedule_backward(h, round + 1);
    // Active while deeper levels remain to fire.
    w.active = round <= max_level_;
    return w;
  }

  struct ForwardAccessor {
    using Value = DistSigma;
    SourceRunner& r;

    Value get(HostId h, VertexId lid) { return r.labels_[h][lid]; }
    void reduce(HostId h, VertexId lid, Value v) { r.combine_forward(h, lid, v.dist, v.sigma); }
    void set(HostId h, VertexId lid, Value v) {
      r.labels_[h][lid] = v;
      r.worklist_[h].push_back(lid);
    }
    void reset(HostId h, VertexId lid) { r.labels_[h][lid] = {}; }
  };

  struct BackwardAccessor {
    using Value = double;
    SourceRunner& r;

    Value get(HostId h, VertexId lid) { return r.delta_[h][lid]; }
    void reduce(HostId h, VertexId lid, Value v) { r.delta_[h][lid] += v; }
    void set(HostId h, VertexId lid, Value v) {
      r.delta_[h][lid] = v;
      r.worklist_[h].push_back(lid);
    }
    void reset(HostId h, VertexId lid) { r.delta_[h][lid] = 0.0; }
  };

  const Partition& part_;
  VertexId source_;
  SbbcOptions opts_;
  Substrate substrate_;
  std::vector<std::vector<DistSigma>> labels_;
  std::vector<std::vector<double>> delta_;
  std::vector<std::vector<VertexId>> worklist_;
  std::vector<std::vector<VertexId>> self_sched_;
  std::vector<util::DynamicBitset> in_frontier_;
  std::vector<std::vector<std::vector<VertexId>>> masters_by_level_;
  // Direction-optimization state (derived, round-local; never serialized).
  std::vector<util::DynamicBitset> pull_frontier_;
  std::vector<std::vector<std::uint32_t>> pull_ord_;  ///< drain ordinal per frontier lid
  std::vector<std::vector<std::vector<core::PushRec>>> pull_recs_;  ///< per replay range
  std::vector<std::uint8_t> last_pull_;               ///< per-host hysteresis bit
  std::vector<std::uint64_t> local_edges_;
  std::vector<std::size_t> pull_rounds_;
  std::vector<core::DrainScratch> scratch_;
  std::uint32_t max_level_ = 0;
};

}  // namespace

// ---- Durable restart-from-disk checkpoints --------------------------------
// sbbc.ckpt (sim::DurableFile), written at source boundaries: the meta
// section pins the configuration and the index of the next source; the
// accum section carries the harvested scores/tables and the stats of the
// completed sources.

namespace {

std::uint32_t config_fingerprint(const Partition& part, const std::vector<VertexId>& sources,
                                 const SbbcOptions& options) {
  util::SendBuffer buf;
  buf.write<std::uint64_t>(part.num_global_vertices());
  buf.write<std::uint32_t>(part.num_hosts());
  buf.write<std::uint8_t>(options.collect_tables ? 1 : 0);
  buf.write<std::uint8_t>(static_cast<std::uint8_t>(options.cluster.codec));
  buf.write<std::uint64_t>(options.cluster.checkpoint_interval);
  buf.write_vector(sources);
  return util::crc32(buf.bytes());
}

}  // namespace

SbbcRun sbbc_bc(const Partition& part, const std::vector<VertexId>& sources,
                const SbbcOptions& options) {
  SbbcRun run;
  const std::size_t n = part.num_global_vertices();
  const std::size_t rows = options.collect_tables ? sources.size() : 0;
  run.result.sources = sources;
  run.result.bc.assign(n, 0.0);
  run.result.dist.assign(rows, std::vector<std::uint32_t>(n, kInfDist));
  run.result.sigma.assign(rows, std::vector<double>(n, 0.0));
  run.result.delta.assign(rows, std::vector<double>(n, 0.0));

  sim::DurableFile file(
      options.checkpoint_dir, "sbbc.ckpt",
      options.checkpoint_dir.empty() ? 0 : config_fingerprint(part, sources, options),
      options.cluster, options.halt_after_checkpoints, options.halt_flag);
  std::size_t start = 0;
  if (options.resume) {
    const sim::SnapshotReader reader = file.resume([&](util::RecvBuffer& meta) {
      start = meta.read<std::uint64_t>();
      if (start > sources.size()) {
        throw std::out_of_range("next source " + std::to_string(start) + " past the " +
                                std::to_string(sources.size()) + " sources");
      }
    });
    reader.read(sim::kSectionAccum, "accum", [&](util::RecvBuffer& accum) {
      run.result.bc = accum.read_vector<double>();
      sim::expect_size("bc", run.result.bc.size(), n);
      sim::load_tables(accum, run.result.dist, rows, n);
      sim::load_tables(accum, run.result.sigma, rows, n);
      sim::load_tables(accum, run.result.delta, rows, n);
      run.forward = sim::load_run_stats(accum);
      run.backward = sim::load_run_stats(accum);
    });
  }

  try {
    for (std::size_t i = start; i < sources.size(); ++i) {
      SourceRunner runner(part, sources[i], options);
      run.forward += runner.run_forward();
      run.backward += runner.run_backward();
      run.forward_pull_rounds += runner.pull_rounds();
      runner.harvest(run.result, i);
      if (!file.enabled()) continue;
      file.write([&](sim::SnapshotWriter& w) {
        w.section(sim::kSectionMeta).write<std::uint64_t>(i + 1);
        util::SendBuffer& accum = w.section(sim::kSectionAccum);
        accum.write_vector(run.result.bc);
        sim::save_tables(accum, run.result.dist);
        sim::save_tables(accum, run.result.sigma);
        sim::save_tables(accum, run.result.delta);
        sim::save_run_stats(accum, run.forward);
        sim::save_run_stats(accum, run.backward);
      });
    }
  } catch (const sim::DurableHalt&) {
    run.halted = true;
  }
  return run;
}

SbbcRun sbbc_bc(const Graph& g, const std::vector<VertexId>& sources,
                const SbbcOptions& options) {
  Partition part(g, options.num_hosts, options.policy);
  return sbbc_bc(part, sources, options);
}

}  // namespace mrbc::baselines
