#include "core/mrbc.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "comm/substrate.h"
#include "core/mrbc_state.h"
#include "core/staged_drain.h"
#include "engine/fault.h"
#include "engine/recovery.h"
#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/threading.h"

namespace mrbc::core {

using graph::kInfDist;
using partition::HostId;
using partition::Partition;

namespace {

// Per-slot status bits (SourceSlot::flags is not wide enough to matter; we
// keep them in side bitsets inside the runner to keep SourceSlot pure data).
constexpr std::uint8_t kFwdFinal = 1;    // forward label finalized on this proxy
constexpr std::uint8_t kAccFinal = 2;    // dependency finalized on this proxy
constexpr std::uint8_t kEagerStaged = 4; // staged for eager (non-final) broadcast

// ---- Two-phase staged drain -----------------------------------------------
// Large rounds drain their worklist in parallel while staying bit-identical
// to the sequential drain. Phase A splits the (lid, sidx) entry list into
// fixed grain-sized chunks (thread-count independent) and, per chunk,
// snapshots + finalizes each entry and records its neighbor pushes, bucketed
// by the target lid's 64-aligned range. Phase B replays each range's pushes
// in global sequential order — chunk-index major, in-chunk push order minor
// — so every slot sees exactly the arithmetic sequence the sequential drain
// would have applied. Ranges are disjoint in everything a push mutates (the
// slot array is lid-major, dirty/dist-map/to_broadcast state is per-lid, and
// 64-lid alignment keeps substrate flag-bitset words range-private), so
// ranges can replay concurrently.
//
// Snapshot safety: Phase A reads every drained entry's slot before any push
// is applied, where the sequential drain interleaves pushes with later
// entries' reads. These agree on valid runs: the delayed-sync schedule fires
// an entry only when its label/dependency is final (Lemmas 2-6 — in
// particular tau_sv > tau_sw for an SP-DAG edge w->v, so same-round
// push-into-drained-entry events always hit an already-final slot and are
// either discarded by the stale-distance check or counted as anomalies).
// Runs that already violate the pipelining invariant (anomalies > 0) may
// count anomalies differently than the sequential drain; they are reported
// as broken either way.
//
// The drain (staged_drain) with its PushRec / ChunkRecs records and 64-lid
// range partition lives in core/staged_drain.h, shared with SBBC.
//
// ---- Direction optimization (forward phase) -------------------------------
// Dense rounds invert the drain: instead of iterating the frontier and
// relaxing out-edges (push), each 64-lid range scans its *targets* and
// gathers contributions from frontier in-neighbors (pull). Two bit planes
// drive the scan, both lid-major with source_words() words per lid:
//   avail    — bit (lid, sidx) set while the slot is NOT forward-finalized;
//              maintained by finalize_forward() on every drain path and
//              rebuilt from the kFwdFinal flags on checkpoint restore.
//   frontier — bit set for exactly this round's drained entries; cleared
//              before the round ends.
// A pull round finalizes the frontier first (Phase A, recording each
// entry's drain ordinal), then per target range intersects each
// in-neighbor's frontier row with the target's avail row, emits a PushRec
// per hit, sorts by (entry ordinal, target), and replays through the same
// combine_forward_impl as push mode. Because local adjacency is sorted
// ascending, push's (entry, edge-position) order IS (entry, target) order,
// so the replay sequence equals push's sequence restricted to
// not-yet-finalized targets — and on valid runs every omitted push is a
// stale contribution into a finalized slot, discarded with zero side
// effects (the d > dist check precedes everything; a non-stale push into a
// finalized slot is a pipelining violation). Results, stats (pull charges
// work_items analytically as the frontier's out-degree sum — push's
// per-edge count), wire traffic, and checkpoint bytes are therefore
// bit-identical to push; runs that are already broken (anomalies > 0) may
// count anomalies differently, as with the staged/sequential split above.
// Generation and replay fuse into one parallel pass: generation reads only
// frontier slots (avail = 0), replay writes only avail slots, and both
// planes are frozen between the Phase-A barrier and the end of the round.

/// One worklist entry: source `sidx`'s label on proxy `lid` is final and
/// drains this round. POD, so worklists checkpoint through write_vector as
/// a u64 count plus two u32 per entry.
struct DrainEntry {
  graph::VertexId lid = 0;
  std::uint32_t sidx = 0;
};
static_assert(sizeof(DrainEntry) == 2 * sizeof(std::uint32_t));

/// One batch's distributed execution: forward APSP then accumulation.
/// Checkpointable so that BspLoop can snapshot/roll back the whole batch
/// state (labels + round-local queues + substrate flags) for crash recovery.
class BatchRunner final : public sim::Checkpointable {
 public:
  BatchRunner(const Partition& part, std::vector<graph::VertexId> batch,
              const MrbcOptions& opts)
      : part_(part), batch_(std::move(batch)), opts_(opts), substrate_(part) {
    substrate_.set_delivery(opts_.cluster.delivery());
    if (opts_.cluster.membership != nullptr) {
      // Deaths declared in earlier batches persist: adopted shards stay
      // co-located with their adopter for the rest of the run.
      substrate_.set_placement(opts_.cluster.membership->logical_to_physical());
    }
    const HostId H = part_.num_hosts();
    const auto k = static_cast<std::uint32_t>(batch_.size());
    state_.reserve(H);
    masters_.resize(H);
    worklist_.resize(H);
    self_sched_.resize(H);
    staged_lids_.resize(H);
    anomalies_.assign(H, 0);
    host_active_.assign(H, 0);
    flags_.resize(H);
    avail_.resize(H);
    frontier_.resize(H);
    frontier_ord_.resize(H);
    last_pull_.assign(H, 0);
    local_edges_.assign(H, 0);
    live_indeg_.assign(H, 0);
    final_count_.resize(H);
    pull_rounds_.assign(H, 0);
    scratch_.resize(H);
    for (HostId h = 0; h < H; ++h) {
      const auto& hg = part_.host(h);
      state_.emplace_back(hg.num_proxies(), k);
      flags_[h].assign(static_cast<std::size_t>(hg.num_proxies()) * k, 0);
      const std::uint32_t kw = state_[h].source_words();
      avail_[h].resize(static_cast<std::size_t>(hg.num_proxies()) * kw * 64);
      frontier_[h].resize(static_cast<std::size_t>(hg.num_proxies()) * kw * 64);
      frontier_ord_[h].assign(static_cast<std::size_t>(hg.num_proxies()) * k, 0);
      rebuild_avail(h);
      local_edges_[h] = hg.local.num_edges();
      for (graph::VertexId l = 0; l < hg.num_proxies(); ++l) {
        if (hg.is_master[l]) masters_[h].push_back(l);
      }
    }
  }

  sim::RunStats run_forward(const sim::LoopCheckpoint* resume = nullptr) {
    obs::Span phase_span(obs::Category::kAlgo, "forward");
    // Step 3 of Alg. 3, restricted to the batch sources (Lemma 8): each
    // source's master proxy starts with (0, s) and sigma 1. On a cold
    // restart the checkpoint already contains the seeded (and advanced)
    // state, so re-seeding would corrupt it.
    if (resume == nullptr) {
      for (std::uint32_t sidx = 0; sidx < batch_.size(); ++sidx) {
        const graph::VertexId gv = batch_[sidx];
        const HostId h = part_.master_host(gv);
        const graph::VertexId lid = part_.local_id(h, gv);
        state_[h].update_distance(lid, sidx, 0);
        state_[h].slot(lid, sidx).sigma = 1.0;
      }
    }
    ForwardAccessor acc{*this};
    sim::BspLoop loop(part_.num_hosts(), opts_.cluster);
    sim::RunStats stats = loop.run(
        [&](std::size_t round) {
          current_round_ = static_cast<std::uint32_t>(round);
          // Reduce first: every mirror contribution of this round must be
          // at the master BEFORE the delayed-sync rule is evaluated, or an
          // entry could fire with an incomplete position or sigma.
          comm::SyncStats s = substrate_.reduce(acc);
          // Host-disjoint (each call touches only host h's state and sync
          // flags), so schedule alongside the cluster's host parallelism.
          util::for_each_index(part_.num_hosts(), opts_.cluster.parallel_hosts,
                               [&](std::size_t h) {
                                 schedule_forward(static_cast<HostId>(h), current_round_);
                               });
          s += substrate_.broadcast(acc);
          return s;
        },
        [&](HostId h, std::size_t round) {
          return compute_forward(h, static_cast<std::uint32_t>(round));
        },
        [&] { return substrate_.any_pending(); }, this, resume);
    forward_rounds_ = static_cast<std::uint32_t>(stats.rounds);
    return stats;
  }

  sim::RunStats run_backward(const sim::LoopCheckpoint* resume = nullptr) {
    if (resume == nullptr) {
      // Diameter finalization: seed the backward pass from the forward
      // round count (the "R" every host agreed on at quiescence). A cold
      // restart restores the checkpoint instead — its acc_sent cursors and
      // queues already reflect the seeding (and any progress since).
      const std::uint32_t R = forward_rounds_;
      obs::Span finalize_span(obs::Category::kAlgo, "finalize");
      util::for_each_index(part_.num_hosts(), opts_.cluster.parallel_hosts, [&](std::size_t h) {
        schedule_backward(static_cast<HostId>(h), 1, R);
      });
    }
    obs::Span phase_span(obs::Category::kAlgo, "backward");
    BackwardAccessor acc{*this};
    sim::BspLoop loop(part_.num_hosts(), opts_.cluster);
    return loop.run(
        [&](std::size_t) { return substrate_.sync(acc); },
        [&](HostId h, std::size_t round) {
          // forward_rounds_ is read per call, not captured: on a resumed
          // backward phase its restored value only exists after the loop's
          // restore_checkpoint runs.
          return compute_backward(h, static_cast<std::uint32_t>(round), forward_rounds_);
        },
        [&] { return substrate_.any_pending(); }, this, resume);
  }

  /// Permanent host loss: co-locate the adopted logical shards with their
  /// adopter so pair traffic between them stops being wire traffic.
  void on_membership_change(const sim::Membership& membership) override {
    substrate_.set_placement(membership.logical_to_physical());
  }

  // ---- Checkpointing ------------------------------------------------------
  // Everything a replayed round can read must round-trip: label state,
  // round-local queues, the batch's status flags, and the substrate's sync
  // flags + delivery sequence numbers. Topology (part_, masters_) is
  // immutable and stays out of the snapshot.

  void save_checkpoint(util::SendBuffer& buf) const override {
    substrate_.save_state(buf);
    const HostId H = part_.num_hosts();
    for (HostId h = 0; h < H; ++h) {
      state_[h].save(buf);
      buf.write_vector(flags_[h]);
      buf.write_vector(worklist_[h]);
      buf.write_vector(self_sched_[h]);
      buf.write_vector(staged_lids_[h]);
    }
    buf.write_vector(anomalies_);
    buf.write_vector(host_active_);
    buf.write<std::uint32_t>(forward_rounds_);
    buf.write<std::uint32_t>(current_round_);
  }

  void restore_checkpoint(util::RecvBuffer& buf) override {
    substrate_.restore_state(buf);
    const HostId H = part_.num_hosts();
    for (HostId h = 0; h < H; ++h) {
      state_[h].restore(buf);
      flags_[h] = buf.read_vector<std::uint8_t>();
      worklist_[h] = buf.read_vector<DrainEntry>();
      self_sched_[h] = buf.read_vector<DrainEntry>();
      staged_lids_[h] = buf.read_vector<graph::VertexId>();
      // The direction-optimization planes are derived state: avail mirrors
      // the restored kFwdFinal flags, the frontier is all-zero between
      // rounds (restores happen at sync boundaries). Snapshot bytes are
      // untouched by the direction machinery.
      rebuild_avail(h);
      frontier_[h].reset_all();
    }
    anomalies_ = buf.read_vector<std::size_t>();
    host_active_ = buf.read_vector<std::uint8_t>();
    forward_rounds_ = buf.read<std::uint32_t>();
    current_round_ = buf.read<std::uint32_t>();
  }

  /// Adds this batch's dependencies into the global result.
  void harvest(BcResult& out) const {
    const std::size_t base = out.sources.size();
    out.sources.insert(out.sources.end(), batch_.begin(), batch_.end());
    if (opts_.collect_tables) {
      out.dist.resize(base + batch_.size(),
                      std::vector<std::uint32_t>(part_.num_global_vertices(), kInfDist));
      out.sigma.resize(base + batch_.size(),
                       std::vector<double>(part_.num_global_vertices(), 0.0));
      out.delta.resize(base + batch_.size(),
                       std::vector<double>(part_.num_global_vertices(), 0.0));
    }
    for (HostId h = 0; h < part_.num_hosts(); ++h) {
      const auto& hg = part_.host(h);
      for (graph::VertexId lid : masters_[h]) {
        const graph::VertexId gv = hg.local_to_global[lid];
        for (std::uint32_t sidx = 0; sidx < batch_.size(); ++sidx) {
          const SourceSlot& s = state_[h].slot(lid, sidx);
          if (batch_[sidx] != gv && s.dist != kInfDist) out.bc[gv] += s.delta;
          if (opts_.collect_tables) {
            out.dist[base + sidx][gv] = s.dist;
            out.sigma[base + sidx][gv] = s.sigma;
            out.delta[base + sidx][gv] = s.delta;
          }
        }
      }
    }
  }

  std::size_t anomalies() const {
    std::size_t total = 0;
    for (std::size_t a : anomalies_) total += a;
    return total;
  }

  /// Host-rounds the forward phase drained in pull mode (diagnostic).
  std::size_t pull_rounds() const {
    std::size_t total = 0;
    for (std::size_t p : pull_rounds_) total += p;
    return total;
  }

 private:
  using Word = util::DynamicBitset::Word;

  std::uint8_t& flags(HostId h, graph::VertexId lid, std::uint32_t sidx) {
    return flags_[h][static_cast<std::size_t>(lid) * batch_.size() + sidx];
  }

  /// Sets kFwdFinal, clears the slot's avail bit, and maintains the live
  /// in-degree (the heuristic's pull scan cost). Every forward drain path
  /// finalizes through this so the pull plane stays exact. The avail word
  /// is shared by up to 64 sources of one lid and drain entries of the same
  /// lid can land in different chunks, so the updates are atomic RMWs; AND
  /// and ADD are commutative, so the results are order-independent, and
  /// exactly one finalize observes a lid's final count reaching k — that
  /// one retires the lid's in-degree from live_indeg_.
  void finalize_forward(HostId h, graph::VertexId lid, std::uint32_t sidx) {
    flags(h, lid, sidx) |= kFwdFinal;
    const std::uint32_t kw = state_[h].source_words();
    Word& w = avail_[h].words()[static_cast<std::size_t>(lid) * kw + sidx / 64];
    std::atomic_ref<Word>(w).fetch_and(~(Word{1} << (sidx % 64)), std::memory_order_relaxed);
    const std::uint32_t prior = std::atomic_ref<std::uint32_t>(final_count_[h][lid])
                                    .fetch_add(1, std::memory_order_relaxed);
    if (prior + 1 == static_cast<std::uint32_t>(batch_.size())) {
      const auto deg = static_cast<std::uint64_t>(part_.host(h).local.in_degree(lid));
      std::atomic_ref<std::uint64_t>(live_indeg_[h]).fetch_sub(deg, std::memory_order_relaxed);
    }
  }

  /// Derives the avail plane, per-lid final counts, and live in-degree from
  /// the kFwdFinal flags (ctor and restore).
  void rebuild_avail(HostId h) {
    const std::uint32_t k = static_cast<std::uint32_t>(batch_.size());
    const std::uint32_t kw = state_[h].source_words();
    auto& words = avail_[h].words();
    std::fill(words.begin(), words.end(), Word{0});
    const VertexId np = part_.host(h).num_proxies();
    final_count_[h].assign(np, 0);
    live_indeg_[h] = 0;
    for (VertexId lid = 0; lid < np; ++lid) {
      for (std::uint32_t sidx = 0; sidx < k; ++sidx) {
        if (!(flags(h, lid, sidx) & kFwdFinal)) {
          words[static_cast<std::size_t>(lid) * kw + sidx / 64] |= Word{1} << (sidx % 64);
        } else {
          ++final_count_[h][lid];
        }
      }
      if (final_count_[h][lid] < k) {
        live_indeg_[h] += static_cast<std::uint64_t>(part_.host(h).local.in_degree(lid));
      }
    }
  }

  /// Out-degree sum of this round's drain entries: the push cost of the
  /// round, and exactly what the push drain charges as work_items. u64
  /// addition is associative, so the chunked reduction is exact and
  /// thread-count independent.
  std::uint64_t frontier_degree(HostId h, std::size_t total, std::size_t grain) {
    const auto& hg = part_.host(h);
    return util::ThreadPool::global().parallel_reduce(
        0, total, grain, std::uint64_t{0},
        [&](std::size_t ei) {
          return static_cast<std::uint64_t>(hg.local.out_degree(drain_entry(h, ei).lid));
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }

  // ---- Forward phase ----------------------------------------------------

  /// Applies one incoming (dist, sigma) contribution to a proxy — the
  /// lines 11-17 update rules of Alg. 3 in proxy form. The (anoms, staged,
  /// ord) tail routes the two side effects that are not per-target-lid —
  /// the anomaly counter and the eager staging list — to per-range
  /// accumulators during a staged replay; the comm-phase entry point below
  /// binds them to the host's direct state.
  void combine_forward_impl(HostId h, graph::VertexId lid, std::uint32_t sidx, std::uint32_t d,
                            double sigma, std::size_t& anoms, std::vector<OrdLid>* staged,
                            std::uint64_t ord) {
    HostState& st = state_[h];
    SourceSlot& s = st.slot(lid, sidx);
    if (d > s.dist) return;  // stale
    if (flags(h, lid, sidx) & kFwdFinal) {
      ++anoms;  // update after finalization: forbidden by Lemmas 2-5
      return;
    }
    if (d < s.dist) {
      st.update_distance(lid, sidx, d);
      s.sigma = sigma;
    } else {
      s.sigma += sigma;
    }
    if (part_.host(h).is_master[lid]) {
      if (!opts_.delayed_sync) stage_eager(h, lid, sidx, staged, ord);
    } else {
      st.mark_dirty(lid, sidx);
      substrate_.flag_reduce(h, lid);
    }
  }

  void combine_forward(HostId h, graph::VertexId lid, std::uint32_t sidx, std::uint32_t d,
                       double sigma) {
    combine_forward_impl(h, lid, sidx, d, sigma, anomalies_[h], nullptr, 0);
  }

  void stage_eager(HostId h, graph::VertexId lid, std::uint32_t sidx,
                   std::vector<OrdLid>* staged = nullptr, std::uint64_t ord = 0) {
    if (flags(h, lid, sidx) & kEagerStaged) return;
    flags(h, lid, sidx) |= kEagerStaged;
    if (state_[h].to_broadcast[lid].empty()) {
      if (staged) {
        staged->push_back({ord, lid});
      } else {
        staged_lids_[h].push_back(lid);
      }
    }
    state_[h].to_broadcast[lid].push_back({sidx, false});
    substrate_.flag_broadcast(h, lid);
  }

  /// Flushes the entries of one master vertex whose pipelined send round
  /// has arrived (the delayed-synchronization rule, Section 4.3). The BSP
  /// fire round is d + l_v(d, s) + 1: one round later than the CONGEST
  /// schedule because a contribution computed on a mirror host reaches the
  /// master via the next round's reduce, whereas CONGEST processors receive
  /// within the sending round. The uniform +1 shift preserves every
  /// pipelining invariant (arrival f_x + 2 <= fire f_v + 1 follows from the
  /// CONGEST guarantee f_x < f_v). Entries fire in lexicographic order, so
  /// the next unsent entry is always at index fwd_sent.
  void flush_due_forward(HostId h, graph::VertexId lid, std::uint32_t round) {
    HostState& st = state_[h];
    while (st.fwd_sent[lid] < st.entry_count(lid)) {
      const auto [d, sidx] = st.nth_entry(lid, st.fwd_sent[lid]);
      const std::uint32_t pos = st.fwd_sent[lid] + 2;  // l_v(d,s) + 1
      if (d + pos > round) break;
      if (d + pos < round) ++anomalies_[h];  // a send round was skipped
      if (st.to_broadcast[lid].empty()) staged_lids_[h].push_back(lid);
      st.to_broadcast[lid].push_back({sidx, true});
      substrate_.flag_broadcast(h, lid);
      self_sched_[h].push_back({lid, sidx});
      ++st.fwd_sent[lid];
    }
  }

  /// Per-round pass over all masters, run between the reduce and broadcast
  /// phases of round `round`'s sync: with every contribution of the round
  /// already reduced, fire everything due. This is where the paper's rule
  /// "synchronize d and sigma in round r = d + l(d,s)" is evaluated.
  void schedule_forward(HostId h, std::uint32_t round) {
    HostState& st = state_[h];
    bool active = false;
    for (graph::VertexId lid : masters_[h]) {
      flush_due_forward(h, lid, round);
      active = active || st.fwd_sent[lid] < st.entry_count(lid);
    }
    host_active_[h] = active;
  }

  /// One drained entry: position e in the concatenation worklist ++
  /// self_sched (the exact sequential drain order).
  DrainEntry drain_entry(HostId h, std::size_t e) const {
    const auto& wl = worklist_[h];
    return e < wl.size() ? wl[e] : self_sched_[h][e - wl.size()];
  }

  std::size_t drain_size(HostId h) const { return worklist_[h].size() + self_sched_[h].size(); }

  /// Staged drain of one round (core/staged_drain.h): combine(push, anoms,
  /// staged, ordinal) applies one push against its range's side
  /// accumulators, which fold back deterministically afterwards.
  template <typename SnapshotFn, typename CombineFn>
  sim::HostWork staged_round(HostId h, std::size_t total, std::size_t grain,
                             SnapshotFn&& snapshot, CombineFn&& combine) {
    const std::size_t num_ranges = num_replay_ranges(h);
    const bool eager = !opts_.delayed_sync;
    std::vector<std::size_t> range_anoms(num_ranges, 0);
    std::vector<std::vector<OrdLid>> range_staged(eager ? num_ranges : 0);
    sim::HostWork w;
    w.work_items = staged_drain(scratch_[h], total, grain, num_ranges, snapshot,
                                [&](std::size_t r, const PushRec& p, std::uint64_t ord) {
                                  combine(p, range_anoms[r], eager ? &range_staged[r] : nullptr,
                                          ord);
                                });
    fold_ranges(h, range_anoms, range_staged);
    return w;
  }

  /// Folds per-range anomaly counts and eager staging lists into host h.
  void fold_ranges(HostId h, const std::vector<std::size_t>& range_anoms,
                   const std::vector<std::vector<OrdLid>>& range_staged) {
    for (std::size_t a : range_anoms) anomalies_[h] += a;
    merge_side_lists(range_staged, staged_lids_[h]);
  }

  std::size_t num_replay_ranges(HostId h) const {
    return num_drain_ranges(part_.host(h).num_proxies());
  }

  /// Pull drain of one staged forward round; see the direction-optimization
  /// design comment above for why the replay is bit-identical to push.
  sim::HostWork compute_forward_pull(HostId h, std::size_t total, std::size_t grain,
                                     std::uint64_t fdeg) {
    HostState& st = state_[h];
    const auto& hg = part_.host(h);
    const std::uint32_t k = static_cast<std::uint32_t>(batch_.size());
    const std::uint32_t kw = st.source_words();
    auto& avail = avail_[h].words();
    auto& frontier = frontier_[h].words();
    auto& ford = frontier_ord_[h];
    // Phase A: finalize the frontier, publish its bits and drain ordinals.
    // OR into the frontier word is atomic for the same reason finalize's
    // AND is: up to 64 sources of one lid share a word across chunks.
    util::ThreadPool::global().parallel_for(0, total, grain, [&](std::size_t ei) {
      const auto [lid, sidx] = drain_entry(h, ei);
      finalize_forward(h, lid, sidx);
      Word& w = frontier[static_cast<std::size_t>(lid) * kw + sidx / 64];
      std::atomic_ref<Word>(w).fetch_or(Word{1} << (sidx % 64), std::memory_order_relaxed);
      ford[static_cast<std::size_t>(lid) * k + sidx] = static_cast<std::uint32_t>(ei);
    });
    // Phases B+C fused per range: gather hit keys, sort into the sequential
    // push order, replay. Generation reads only frontier slots, replay
    // writes only avail slots — disjoint by construction, so no barrier is
    // needed between a range's generation and another range's replay. A hit
    // is recorded as the bare (drain ordinal << 32 | target) u64 — the
    // replay ordinal itself — and the (dist, sigma) snapshot is loaded at
    // replay time: frontier slots stay frozen for the whole pass, so the
    // deferred load reads exactly what Phase-A staging would have copied,
    // and the hot sort runs over 8-byte keys instead of full records.
    const std::size_t num_ranges = num_replay_ranges(h);
    const bool eager = !opts_.delayed_sync;
    DrainScratch& sc = scratch_[h];
    if (sc.range_keys.size() < num_ranges) sc.range_keys.resize(num_ranges);
    std::vector<std::size_t> range_anoms(num_ranges, 0);
    std::vector<std::vector<OrdLid>> range_staged(eager ? num_ranges : 0);
    util::ThreadPool::global().parallel_for(0, num_ranges, 1, [&](std::size_t r) {
      std::vector<std::uint64_t>& keys = sc.range_keys[r];
      keys.clear();
      const auto tb = static_cast<graph::VertexId>(r << kRangeShift);
      const auto te = static_cast<graph::VertexId>(
          std::min<std::size_t>(hg.num_proxies(), (r + 1) << kRangeShift));
      for (graph::VertexId t = tb; t < te; ++t) {
        const Word* av = avail.data() + static_cast<std::size_t>(t) * kw;
        if (kw == 1) {
          // Dominant case (batch <= 64 sources): one word per lid, keep the
          // intersection inline instead of a per-edge kernel call.
          const Word a = av[0];
          if (a == 0) continue;
          for (const graph::VertexId wv : hg.local.in_neighbors(t)) {
            Word m = frontier[wv] & a;
            while (m != 0) {
              const auto sidx = static_cast<std::uint32_t>(__builtin_ctzll(m));
              m &= m - 1;
              const std::uint64_t ord = ford[static_cast<std::size_t>(wv) * k + sidx];
              keys.push_back((ord << 32) | t);
            }
          }
        } else {
          if (util::bitwords::find_nonzero(av, kw, 0) == kw) continue;
          for (const graph::VertexId wv : hg.local.in_neighbors(t)) {
            const Word* fr = frontier.data() + static_cast<std::size_t>(wv) * kw;
            if (!util::bitwords::any_intersect(fr, av, kw)) continue;
            for (std::uint32_t j = 0; j < kw; ++j) {
              Word m = fr[j] & av[j];
              while (m != 0) {
                const auto sidx = j * 64 + static_cast<std::uint32_t>(__builtin_ctzll(m));
                m &= m - 1;
                const std::uint64_t ord = ford[static_cast<std::size_t>(wv) * k + sidx];
                keys.push_back((ord << 32) | t);
              }
            }
          }
        }
      }
      // Keys are unique — ord pins (source lid, sidx), and a lid pushes at
      // most once per target — so (ord, target) order is total.
      std::sort(keys.begin(), keys.end());
      std::size_t anoms = 0;
      std::vector<OrdLid>* staged = eager ? &range_staged[r] : nullptr;
      for (const std::uint64_t key : keys) {
        const auto t = static_cast<graph::VertexId>(key & 0xFFFFFFFFu);
        const auto [wv, sidx] = drain_entry(h, key >> 32);
        const SourceSlot& sw = st.slot(wv, sidx);
        combine_forward_impl(h, t, sidx, sw.dist + 1, sw.sigma, anoms, staged, key);
      }
      range_anoms[r] = anoms;
    });
    fold_ranges(h, range_anoms, range_staged);
    // Clear the frontier rows (every set bit in a touched row was set this
    // round). Entries sharing a lid re-clear the same words — idempotent.
    for (std::size_t ei = 0; ei < total; ++ei) {
      const auto lid = drain_entry(h, ei).lid;
      std::fill_n(frontier.begin() + static_cast<std::size_t>(lid) * kw, kw, Word{0});
    }
    ++pull_rounds_[h];
    sim::HostWork w;
    w.work_items = fdeg;
    return w;
  }

  sim::HostWork compute_forward(HostId h, std::uint32_t round) {
    HostState& st = state_[h];
    const auto& hg = part_.host(h);
    sim::HostWork w;
    const std::size_t total = drain_size(h);
    const std::size_t grain = std::max<std::size_t>(opts_.drain_grain, 1);
    // Drain finalized labels delivered this round (broadcast arrivals on
    // mirrors + the master's own scheduled entries): each is the CONGEST
    // "send along all out-edges", performed as local proxy updates.
    if (total > grain) {
      // The pull's scan cost is the live in-degree: fully-final lids are
      // skipped in O(1) via their zero avail word.
      const std::optional<std::uint64_t> fdeg =
          choose_pull(opts_, local_edges_[h], live_indeg_[h], last_pull_[h],
                      [&] { return frontier_degree(h, total, grain); });
      if (fdeg) {
        w = compute_forward_pull(h, total, grain, *fdeg);
      } else {
        w = staged_round(
            h, total, grain,
            [&](ChunkRecs& ch, std::vector<PushRec>& recs, std::size_t ei) {
              const auto [lid, sidx] = drain_entry(h, ei);
              finalize_forward(h, lid, sidx);
              const SourceSlot s = st.slot(lid, sidx);
              for (graph::VertexId tl : hg.local.out_neighbors(lid)) {
                recs.push_back(PushRec{tl, sidx, s.dist + 1, s.sigma,
                                       static_cast<std::uint32_t>(recs.size())});
                ++ch.work_items;
              }
            },
            [&](const PushRec& p, std::size_t& anoms, std::vector<OrdLid>* staged,
                std::uint64_t ord) {
              combine_forward_impl(h, p.target, p.sidx, p.dist, p.value, anoms, staged, ord);
            });
      }
    } else {
      auto drain = [&](const std::vector<DrainEntry>& list) {
        for (const auto& [lid, sidx] : list) {
          finalize_forward(h, lid, sidx);
          const SourceSlot s = st.slot(lid, sidx);
          for (graph::VertexId tl : hg.local.out_neighbors(lid)) {
            combine_forward(h, tl, sidx, s.dist + 1, s.sigma);
            ++w.work_items;
          }
        }
      };
      drain(worklist_[h]);
      drain(self_sched_[h]);
    }
    worklist_[h].clear();
    self_sched_[h].clear();
    for (graph::VertexId lid : staged_lids_[h]) {
      st.to_broadcast[lid].clear();
      // clear eager-staging marks
      for (std::uint32_t sidx = 0; sidx < batch_.size(); ++sidx) {
        flags(h, lid, sidx) &= static_cast<std::uint8_t>(~kEagerStaged);
      }
    }
    staged_lids_[h].clear();
    (void)round;
    // Re-evaluate after the drain: local pushes can seed brand-new entries
    // at same-host masters without setting any sync flag, and the loop
    // must not quiesce while any master still has unsent entries.
    bool active = false;
    for (graph::VertexId lid : masters_[h]) {
      if (st.fwd_sent[lid] < st.entry_count(lid)) {
        active = true;
        break;
      }
    }
    w.active = active;
    return w;
  }

  // ---- Accumulation phase -------------------------------------------------

  /// tau_sv is re-derived from the final list (Section 4.3: "we can derive
  /// the round in which sigma was sent using d_sv in the map ... and the
  /// number of already sent dependencies"). Entries fire in reverse
  /// lexicographic order: A_sv = R - tau_sv + 1.
  void schedule_backward(HostId h, std::uint32_t next_round, std::uint32_t R) {
    HostState& st = state_[h];
    bool active = false;
    for (graph::VertexId lid : masters_[h]) {
      const std::size_t count = st.entry_count(lid);
      while (st.acc_sent[lid] < count) {
        const std::size_t idx = count - 1 - st.acc_sent[lid];
        const auto [d, sidx] = st.nth_entry(lid, idx);
        // tau matches the shifted forward fire round: d + position + 1.
        const std::uint32_t tau = d + static_cast<std::uint32_t>(idx) + 2;
        const std::uint32_t fire = (R >= tau ? R - tau : 0) + 1;
        if (fire > next_round) break;
        if (fire < next_round) ++anomalies_[h];
        if (st.to_broadcast[lid].empty()) staged_lids_[h].push_back(lid);
        st.to_broadcast[lid].push_back({sidx, true});
        substrate_.flag_broadcast(h, lid);
        self_sched_[h].push_back({lid, sidx});
        ++st.acc_sent[lid];
      }
      active = active || st.acc_sent[lid] < count;
    }
    host_active_[h] = active;
  }

  void combine_backward_impl(HostId h, graph::VertexId lid, std::uint32_t sidx,
                             double contribution, std::size_t& anoms,
                             std::vector<OrdLid>* staged, std::uint64_t ord) {
    HostState& st = state_[h];
    if (flags(h, lid, sidx) & kAccFinal) {
      ++anoms;  // dependency arrived after its vertex fired
      return;
    }
    st.slot(lid, sidx).delta += contribution;
    if (part_.host(h).is_master[lid]) {
      if (!opts_.delayed_sync) stage_eager(h, lid, sidx, staged, ord);
    } else {
      st.mark_dirty(lid, sidx);
      substrate_.flag_reduce(h, lid);
    }
  }

  void combine_backward(HostId h, graph::VertexId lid, std::uint32_t sidx, double contribution) {
    combine_backward_impl(h, lid, sidx, contribution, anomalies_[h], nullptr, 0);
  }

  sim::HostWork compute_backward(HostId h, std::uint32_t round, std::uint32_t R) {
    HostState& st = state_[h];
    const auto& hg = part_.host(h);
    sim::HostWork w;
    // A finalized dependency delta_sv turns into m = (1 + delta)/sigma sent
    // to the predecessors of v in s's SP DAG; predecessors are recognized
    // on each host by dist(w) + 1 == dist(v) (Alg. 5 step 7).
    //
    // The staged path is snapshot-safe here because replay only mutates
    // delta — the dist/sigma a Phase-A snapshot reads are frozen for the
    // whole backward phase.
    const std::size_t total = drain_size(h);
    const std::size_t grain = std::max<std::size_t>(opts_.drain_grain, 1);
    if (total > grain) {
      w = staged_round(
          h, total, grain,
          [&](ChunkRecs& ch, std::vector<PushRec>& recs, std::size_t ei) {
            const auto [lid, sidx] = drain_entry(h, ei);
            flags(h, lid, sidx) |= kAccFinal;
            const SourceSlot& sv = st.slot(lid, sidx);
            if (sv.dist == kInfDist || sv.dist == 0 || sv.sigma == 0.0) return;
            const double m = (1.0 + sv.delta) / sv.sigma;
            for (graph::VertexId wl : hg.local.in_neighbors(lid)) {
              const SourceSlot& sw = st.slot(wl, sidx);
              if (sw.dist != kInfDist && sw.dist + 1 == sv.dist) {
                recs.push_back(
                    PushRec{wl, sidx, 0, sw.sigma * m, static_cast<std::uint32_t>(recs.size())});
              }
              ++ch.work_items;
            }
          },
          [&](const PushRec& p, std::size_t& anoms, std::vector<OrdLid>* staged,
              std::uint64_t ord) {
            combine_backward_impl(h, p.target, p.sidx, p.value, anoms, staged, ord);
          });
    } else {
      auto drain = [&](const std::vector<DrainEntry>& list) {
        for (const auto& [lid, sidx] : list) {
          flags(h, lid, sidx) |= kAccFinal;
          const SourceSlot& sv = st.slot(lid, sidx);
          if (sv.dist == kInfDist || sv.dist == 0 || sv.sigma == 0.0) continue;
          const double m = (1.0 + sv.delta) / sv.sigma;
          for (graph::VertexId wl : hg.local.in_neighbors(lid)) {
            const SourceSlot& sw = st.slot(wl, sidx);
            if (sw.dist != kInfDist && sw.dist + 1 == sv.dist) {
              combine_backward(h, wl, sidx, sw.sigma * m);
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
    for (graph::VertexId lid : staged_lids_[h]) {
      st.to_broadcast[lid].clear();
      for (std::uint32_t sidx = 0; sidx < batch_.size(); ++sidx) {
        flags(h, lid, sidx) &= static_cast<std::uint8_t>(~kEagerStaged);
      }
    }
    staged_lids_[h].clear();
    schedule_backward(h, round + 1, R);
    w.active = host_active_[h];
    return w;
  }

  // ---- Sync accessors -----------------------------------------------------

  // Wire fields go through the mode-aware codec: entry counts are
  // metadata, source indices and distances are small payload integers
  // (varints in kFull), sigma/delta doubles use the tagged-integral f64
  // encoding — forward-phase sigmas are integral path counts, so most of
  // them shrink from 8 wire bytes to one or two. Dirty-source iteration
  // order is part of the reduce arithmetic and is never re-sorted for the
  // wire: compression must not change floating-point apply order.

  struct ForwardAccessor {
    BatchRunner& r;

    void serialize_reduce(HostId h, graph::VertexId lid, comm::CodecWriter& buf) {
      HostState& st = r.state_[h];
      auto& dirty = st.dirty_sources(lid);
      buf.meta_u32(static_cast<std::uint32_t>(dirty.size()));
      for (std::uint32_t sidx : dirty) {
        const SourceSlot s = st.slot(lid, sidx);
        buf.value_u32(sidx);
        buf.value_u32(s.dist);
        buf.f64(s.sigma);
        // Gluon reduce-reset: the mirror's partial returns to identity.
        st.clear_distance(lid, sidx);
        st.slot(lid, sidx).sigma = 0.0;
      }
      st.clear_dirty(lid);
    }

    void apply_reduce(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto d = buf.value_u32();
        const auto sigma = buf.f64();
        r.combine_forward(h, lid, sidx, d, sigma);
      }
    }

    void serialize_broadcast(HostId h, graph::VertexId lid, comm::CodecWriter& buf) {
      const HostState& st = r.state_[h];
      const auto& staged = st.to_broadcast[lid];
      buf.meta_u32(static_cast<std::uint32_t>(staged.size()));
      for (const auto& [sidx, is_final] : staged) {
        const SourceSlot& s = st.slot(lid, sidx);
        buf.value_u32(sidx);
        buf.value_u32(s.dist);
        buf.f64(s.sigma);
        buf.u8(is_final ? 1 : 0);
      }
    }

    void apply_broadcast(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      HostState& st = r.state_[h];
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto d = buf.value_u32();
        const auto sigma = buf.f64();
        const auto is_final = buf.u8();
        if (!is_final) continue;  // eager-mode traffic only
        st.update_distance(lid, sidx, d);
        st.slot(lid, sidx).sigma = sigma;
        r.worklist_[h].push_back({lid, sidx});
      }
    }
  };

  struct BackwardAccessor {
    BatchRunner& r;

    void serialize_reduce(HostId h, graph::VertexId lid, comm::CodecWriter& buf) {
      HostState& st = r.state_[h];
      auto& dirty = st.dirty_sources(lid);
      buf.meta_u32(static_cast<std::uint32_t>(dirty.size()));
      for (std::uint32_t sidx : dirty) {
        buf.value_u32(sidx);
        buf.f64(st.slot(lid, sidx).delta);
        st.slot(lid, sidx).delta = 0.0;  // reduce-reset
      }
      st.clear_dirty(lid);
    }

    void apply_reduce(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto contribution = buf.f64();
        r.combine_backward(h, lid, sidx, contribution);
      }
    }

    void serialize_broadcast(HostId h, graph::VertexId lid, comm::CodecWriter& buf) {
      const HostState& st = r.state_[h];
      const auto& staged = st.to_broadcast[lid];
      buf.meta_u32(static_cast<std::uint32_t>(staged.size()));
      for (const auto& [sidx, is_final] : staged) {
        buf.value_u32(sidx);
        buf.f64(st.slot(lid, sidx).delta);
        buf.u8(is_final ? 1 : 0);
      }
    }

    void apply_broadcast(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      HostState& st = r.state_[h];
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto delta = buf.f64();
        const auto is_final = buf.u8();
        if (!is_final) continue;
        st.slot(lid, sidx).delta = delta;
        r.worklist_[h].push_back({lid, sidx});
      }
    }
  };

  const Partition& part_;
  std::vector<graph::VertexId> batch_;
  MrbcOptions opts_;
  comm::Substrate substrate_;
  std::vector<HostState> state_;
  std::vector<std::vector<graph::VertexId>> masters_;
  std::vector<std::vector<DrainEntry>> worklist_;
  std::vector<std::vector<DrainEntry>> self_sched_;
  std::vector<std::vector<graph::VertexId>> staged_lids_;
  std::vector<std::size_t> anomalies_;
  std::vector<std::vector<std::uint8_t>> flags_;
  std::vector<std::uint8_t> host_active_;  // not vector<bool>: hosts write concurrently
  // Direction-optimization state (all derived / round-local; none of it is
  // checkpointed — see restore_checkpoint):
  std::vector<util::DynamicBitset> avail_;     ///< per host: np x kw plane, bit = not final
  std::vector<util::DynamicBitset> frontier_;  ///< per host: this round's drained slots
  std::vector<std::vector<std::uint32_t>> frontier_ord_;  ///< np x k drain ordinals
  std::vector<std::uint8_t> last_pull_;        ///< kAuto hysteresis, per host
  std::vector<std::uint64_t> local_edges_;     ///< cached |E(local graph)|, per host
  std::vector<std::uint64_t> live_indeg_;      ///< in-degree sum of not-fully-final lids
  std::vector<std::vector<std::uint32_t>> final_count_;  ///< finalized sources per lid
  std::vector<std::size_t> pull_rounds_;       ///< diagnostic counter, per host
  std::vector<DrainScratch> scratch_;          ///< pooled drain buffers, per host
  std::uint32_t forward_rounds_ = 0;
  std::uint32_t current_round_ = 0;
};

// ---- Durable restart-from-disk checkpoints --------------------------------
// mrbc.ckpt (sim::DurableFile): the meta section pins the configuration
// and the progress cursor (next batch, phase), the accum section carries
// everything harvested from completed batches, and — when a batch is in
// flight — the phase section holds the in-flight phase's stats and the
// loop section the BSP loop's coordinated checkpoint.

constexpr std::uint32_t kSecPhase = 3;
constexpr std::uint32_t kSecLoop = 4;

constexpr std::uint32_t kPhaseForward = 0;
constexpr std::uint32_t kPhaseBackward = 1;
constexpr std::uint32_t kPhaseBatchDone = 2;

/// Everything that must match between the writing and the resuming run for
/// a snapshot to mean the same computation, plus the loop snapshot's byte
/// layout (a file from an older layout is rejected, not misparsed).
std::uint32_t config_fingerprint(const Partition& part,
                                 const std::vector<graph::VertexId>& sources,
                                 const MrbcOptions& options) {
  util::SendBuffer buf;
  buf.write<std::uint64_t>(part.num_global_vertices());
  buf.write<std::uint32_t>(part.num_hosts());
  buf.write<std::uint32_t>(std::max<std::uint32_t>(options.batch_size, 1));
  buf.write<std::uint8_t>(options.delayed_sync ? 1 : 0);
  buf.write<std::uint8_t>(options.collect_tables ? 1 : 0);
  buf.write<std::uint8_t>(static_cast<std::uint8_t>(options.cluster.codec));
  buf.write<std::uint64_t>(options.cluster.checkpoint_interval);
  buf.write_vector(sources);
  buf.write<std::uint32_t>(HostState::kWireLayout);
  return util::crc32(buf.bytes());
}

void save_accum(util::SendBuffer& buf, const MrbcRun& run) {
  buf.write_vector(run.result.bc);
  buf.write_vector(run.result.sources);
  sim::save_tables(buf, run.result.dist);
  sim::save_tables(buf, run.result.sigma);
  sim::save_tables(buf, run.result.delta);
  sim::save_run_stats(buf, run.forward);
  sim::save_run_stats(buf, run.backward);
  buf.write<std::uint64_t>(run.num_batches);
  buf.write<std::uint64_t>(run.anomalies);
  buf.write<double>(run.replication_factor);
}

/// Mirror of save_accum, checked against the run: `n` vertices, and the
/// `harvested` sources of the batches before the file's cursor.
void load_accum(util::RecvBuffer& buf, MrbcRun& run, std::size_t n, std::size_t harvested,
                bool tables) {
  run.result.bc = buf.read_vector<double>();
  sim::expect_size("bc", run.result.bc.size(), n);
  run.result.sources = buf.read_vector<graph::VertexId>();
  sim::expect_size("sources", run.result.sources.size(), harvested);
  const std::size_t rows = tables ? harvested : 0;
  sim::load_tables(buf, run.result.dist, rows, n);
  sim::load_tables(buf, run.result.sigma, rows, n);
  sim::load_tables(buf, run.result.delta, rows, n);
  run.forward = sim::load_run_stats(buf);
  run.backward = sim::load_run_stats(buf);
  run.num_batches = buf.read<std::uint64_t>();
  run.anomalies = buf.read<std::uint64_t>();
  run.replication_factor = buf.read<double>();
}

/// Writes the run state to mrbc.ckpt. One writer lives for the whole mrbc_bc
/// call; the progress-cursor fields are updated as batches and phases
/// advance.
struct DurableWriter {
  sim::DurableFile& file;
  const MrbcRun& accum;  ///< state as of the current batch's start
  std::uint64_t batch_begin = 0;
  std::uint32_t phase = kPhaseForward;
  const sim::RunStats* batch_forward = nullptr;  ///< set during backward
  const sim::RunStats* leg_prefix = nullptr;     ///< stats this leg resumed from

  /// `loop`/`partial` are null at batch boundaries (nothing in flight).
  void write(const sim::LoopCheckpoint* loop, const sim::RunStats* partial) {
    file.write([&](sim::SnapshotWriter& w) {
      util::SendBuffer& meta = w.section(sim::kSectionMeta);
      meta.write<std::uint64_t>(batch_begin);
      meta.write<std::uint32_t>(phase);
      save_accum(w.section(sim::kSectionAccum), accum);
      if (phase == kPhaseBatchDone) return;
      util::SendBuffer& ph = w.section(kSecPhase);
      if (phase == kPhaseBackward) sim::save_run_stats(ph, *batch_forward);
      if (leg_prefix != nullptr) {
        sim::save_run_stats(ph, sim::merge_resumed(*leg_prefix, *partial));
      } else {
        sim::save_run_stats(ph, *partial);
      }
      // write_vector framing, with the loop's snapshot framed in place
      // rather than copied into the section.
      util::SendBuffer& lp = w.section(kSecLoop);
      lp.write<std::uint64_t>(loop->round);
      lp.write<std::uint8_t>(loop->any_active ? 1 : 0);
      lp.write<std::uint64_t>(loop->snapshot.size());
      w.attach(kSecLoop, loop->snapshot.data(), loop->snapshot.size());
    });
  }
};

}  // namespace

MrbcRun mrbc_bc(const Partition& part, const std::vector<graph::VertexId>& sources,
                const MrbcOptions& options) {
  MrbcRun run;
  const std::size_t n = part.num_global_vertices();
  run.result.bc.assign(n, 0.0);
  run.replication_factor = part.replication_factor();
  const std::uint32_t k = std::max<std::uint32_t>(options.batch_size, 1);
  const bool durable = !options.checkpoint_dir.empty();
  sim::DurableFile file(options.checkpoint_dir, "mrbc.ckpt",
                        durable ? config_fingerprint(part, sources, options) : 0,
                        options.cluster, options.halt_after_checkpoints, options.halt_flag);
  DurableWriter writer{file, run};

  std::size_t begin = 0;
  std::uint32_t resume_phase = kPhaseBatchDone;  // "at the start of batch `begin`"
  sim::LoopCheckpoint loop_ck;
  sim::RunStats saved_leg;            // interrupted leg's stats at the snapshot
  sim::RunStats saved_batch_forward;  // completed forward of the interrupted batch
  if (options.resume) {
    const sim::SnapshotReader reader = file.resume([&](util::RecvBuffer& meta) {
      begin = meta.read<std::uint64_t>();
      resume_phase = meta.read<std::uint32_t>();
      if (resume_phase > kPhaseBatchDone) {
        throw std::out_of_range("unknown phase " + std::to_string(resume_phase));
      }
    });
    reader.read(sim::kSectionAccum, "accum", [&](util::RecvBuffer& buf) {
      load_accum(buf, run, n, std::min(begin, sources.size()), options.collect_tables);
    });
    if (resume_phase != kPhaseBatchDone) {
      reader.read(kSecPhase, "phase", [&](util::RecvBuffer& ph) {
        if (resume_phase == kPhaseBackward) saved_batch_forward = sim::load_run_stats(ph);
        saved_leg = sim::load_run_stats(ph);
      });
      reader.read(kSecLoop, "loop", [&](util::RecvBuffer& lp) {
        loop_ck.round = lp.read<std::uint64_t>();
        loop_ck.any_active = lp.read<std::uint8_t>() != 0;
        loop_ck.snapshot = lp.read_vector<std::uint8_t>();
      });
    }
  }

  try {
    for (; begin < sources.size(); begin += k) {
      const std::size_t end = std::min(sources.size(), begin + k);
      std::vector<graph::VertexId> batch(sources.begin() + begin, sources.begin() + end);
      MrbcOptions opts = options;
      if (durable) {
        writer.batch_begin = begin;
        opts.cluster.on_checkpoint = [&](const sim::LoopCheckpoint& ck,
                                         const sim::RunStats& partial) {
          writer.write(&ck, &partial);
        };
      }
      BatchRunner runner(part, std::move(batch), opts);

      const bool resume_here = resume_phase != kPhaseBatchDone;
      if (resume_here) {
        // The loop snapshot is CRC-valid but not yet parsed: restore it here
        // so a malformed one fails as a SnapshotError naming its section
        // before any round runs. BspLoop then restores it again as its
        // rollback point.
        sim::parse_section(kSecLoop, "loop", loop_ck.snapshot,
                           [&](util::RecvBuffer& buf) { runner.restore_checkpoint(buf); });
      }
      sim::RunStats fwd;
      if (resume_here && resume_phase == kPhaseBackward) {
        // Forward already completed before the snapshot; its stats were
        // saved whole and the runner's state is inside the loop snapshot.
        fwd = saved_batch_forward;
      } else if (resume_here) {
        writer.phase = kPhaseForward;
        writer.leg_prefix = &saved_leg;
        fwd = sim::merge_resumed(saved_leg, runner.run_forward(&loop_ck));
        writer.leg_prefix = nullptr;
      } else {
        writer.phase = kPhaseForward;
        fwd = runner.run_forward();
      }
      // NOT folded into run.forward yet: mid-backward snapshots save accum
      // (which must be the state at the batch's start) plus `fwd` in the
      // phase section — folding early would double-count on resume.

      sim::RunStats bwd;
      writer.phase = kPhaseBackward;
      writer.batch_forward = &fwd;
      if (resume_here && resume_phase == kPhaseBackward) {
        writer.leg_prefix = &saved_leg;
        bwd = sim::merge_resumed(saved_leg, runner.run_backward(&loop_ck));
        writer.leg_prefix = nullptr;
      } else {
        bwd = runner.run_backward();
      }
      run.forward += fwd;
      run.backward += bwd;
      writer.batch_forward = nullptr;
      resume_phase = kPhaseBatchDone;

      runner.harvest(run.result);
      run.anomalies += runner.anomalies();
      run.forward_pull_rounds += runner.pull_rounds();
      ++run.num_batches;
      if (durable) {
        // Batch-boundary snapshot: nothing in flight, accum carries it all.
        writer.batch_begin = begin + k;
        writer.phase = kPhaseBatchDone;
        writer.write(nullptr, nullptr);
      }
    }
  } catch (const sim::DurableHalt&) {
    run.halted = true;
  }
  return run;
}

MrbcRun mrbc_bc(const Graph& g, const std::vector<graph::VertexId>& sources,
                const MrbcOptions& options) {
  Partition part(g, options.num_hosts, options.policy);
  return mrbc_bc(part, sources, options);
}

}  // namespace mrbc::core
