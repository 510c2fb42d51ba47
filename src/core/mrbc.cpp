#include "core/mrbc.h"

#include <algorithm>
#include <cassert>

#include "comm/substrate.h"
#include "core/mrbc_state.h"
#include "core/staged_drain.h"
#include "engine/fault.h"
#include "engine/recovery.h"
#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "obs/trace.h"
#include "util/threading.h"

namespace mrbc::core {

using graph::kInfDist;
using partition::HostId;
using partition::Partition;

namespace {

// Each cell's status bits (kFwdFinal, kAccFinal, kEagerStaged) live in its
// SourceSlot, in the struct's padding: a drain that reads a cell's status
// reads its label from the same cache line, and the checkpoint writes both
// in one cell record (HostState::save).

// ---- The round drain ---------------------------------------------------------
// Each phase kernel is one relaxation body (the expand callables in
// compute_forward and compute_backward) and one push apply (combine_*),
// run by core::drain_round (core/staged_drain.h). Rounds of at most
// drain_grain entries apply each push as the body emits it. Larger rounds
// drain in parallel and stay bit-identical to that inline drain: Phase A
// splits the (lid, sidx) entry list into fixed grain-sized chunks
// (thread-count independent) and, per chunk, finalizes each entry, reads
// its slot and records its neighbor pushes, bucketed by the target lid's
// 64-aligned range. Phase B replays each range's pushes in global push
// order — chunk-index major, in-chunk push order minor — so every slot
// sees exactly the arithmetic sequence the inline drain applies. Ranges
// are disjoint in everything a push mutates (the slot array is lid-major,
// dirty/L_v-row/to_broadcast state is per-lid, and 64-lid alignment keeps
// substrate flag-bitset and pending-set words range-private), so ranges
// replay concurrently. The two side effects no lid owns, the anomaly count
// and the eager staging list, go through a DrainSide: the host's own
// inline, one per range when staged, merged in push-ordinal order.
//
// Snapshot safety: Phase A reads every drained entry's slot before any push
// is applied, where the inline drain interleaves pushes with later
// entries' reads. These agree on valid runs: the delayed-sync schedule fires
// an entry only when its label/dependency is final (Lemmas 2-6 — in
// particular tau_sv > tau_sw for an SP-DAG edge w->v, so same-round
// push-into-drained-entry events always hit an already-final slot and are
// either discarded by the stale-distance check or counted as anomalies).
// Runs that already violate the pipelining invariant (anomalies > 0) may
// count anomalies differently than the inline drain; they are reported
// as broken either way.

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
/// state (labels and their status bits + round-local queues + substrate
/// flags) for crash recovery.
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
    scratch_.resize(H);
    pending_.resize(H);
    calendar_.resize(H);
    for (HostId h = 0; h < H; ++h) {
      const auto& hg = part_.host(h);
      state_.emplace_back(hg.is_master, k);
      pending_[h].resize(hg.num_proxies());
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
        pending_[h].set(lid);
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
        [&](HostId h, std::size_t) { return compute_forward(h); },
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
  // Everything a replayed round can read must round-trip: label state with
  // its status bits, round-local queues, and the substrate's sync flags +
  // delivery sequence numbers. Topology (part_, masters_) is
  // immutable and stays out of the snapshot.

  void save_checkpoint(util::SendBuffer& buf) const override {
    substrate_.save_state(buf);
    const HostId H = part_.num_hosts();
    for (HostId h = 0; h < H; ++h) {
      state_[h].save(buf);
      buf.write_vector(worklist_[h]);
      buf.write_vector(self_sched_[h]);
      buf.write_vector(staged_lids_[h]);
    }
    buf.write_vector(anomalies_);
    buf.write_vector(host_active_);
    buf.write<std::uint32_t>(forward_rounds_);
    buf.write<std::uint32_t>(current_round_);
  }

  /// Throws on any index or size outside this batch's label state, so a
  /// CRC-valid but inconsistent snapshot is refused before any round reads
  /// it.
  void restore_checkpoint(util::RecvBuffer& buf) override {
    substrate_.restore_state(buf);
    const HostId H = part_.num_hosts();
    const auto k = static_cast<std::uint32_t>(batch_.size());
    for (HostId h = 0; h < H; ++h) {
      const VertexId np = part_.host(h).num_proxies();
      state_[h].restore(buf);
      worklist_[h] = buf.read_vector<DrainEntry>();
      self_sched_[h] = buf.read_vector<DrainEntry>();
      staged_lids_[h] = buf.read_vector<graph::VertexId>();
      for (const auto* list : {&worklist_[h], &self_sched_[h]}) {
        for (const auto& [lid, sidx] : *list) {
          if (lid >= np || sidx >= k) {
            throw std::out_of_range("host " + std::to_string(h) + ": drain entry (" +
                                    std::to_string(lid) + ", " + std::to_string(sidx) +
                                    ") out of range");
          }
        }
      }
      for (graph::VertexId lid : staged_lids_[h]) {
        if (lid >= np) {
          throw std::out_of_range("host " + std::to_string(h) + ": staged lid " +
                                  std::to_string(lid) + " out of range");
        }
      }
      // The scheduler's state is derived, never checkpointed: the pending
      // set is rebuilt here from the cursors, the backward calendar on its
      // next use.
      rebuild_pending(h);
      calendar_[h].built = false;
    }
    anomalies_ = buf.read_vector<std::size_t>();
    sim::expect_size("anomalies", anomalies_.size(), H);
    host_active_ = buf.read_vector<std::uint8_t>();
    sim::expect_size("host_active", host_active_.size(), H);
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

 private:
  /// Derives the forward scheduler's pending set from the cursors: the
  /// masters with unsent L_v entries (ctor state is all-clear; restore).
  void rebuild_pending(HostId h) {
    const HostState& st = state_[h];
    pending_[h].reset_all();
    for (graph::VertexId lid : masters_[h]) {
      if (st.fwd_sent[lid] < st.entry_count(lid)) pending_[h].set(lid);
    }
  }

  // ---- Forward phase ----------------------------------------------------

  /// The host's own drain side: its anomaly counter and eager staging list.
  DrainSide host_side(HostId h) { return DrainSide(staged_lids_[h], &anomalies_[h]); }

  /// Applies one incoming (dist, sigma) contribution to a proxy — the
  /// lines 11-17 update rules of Alg. 3 in proxy form. The anomaly count
  /// and the eager staging list go through `side`, with `ord` the push's
  /// ordinal in a staged round.
  void combine_forward(HostId h, graph::VertexId lid, std::uint32_t sidx, std::uint32_t d,
                       double sigma, DrainSide& side, std::uint64_t ord) {
    HostState& st = state_[h];
    SourceSlot& s = st.slot(lid, sidx);
    if (d > s.dist) return;  // stale
    if (s.status & SourceSlot::kFwdFinal) {
      side.count_anomaly();  // update after finalization: forbidden by Lemmas 2-5
      return;
    }
    if (d < s.dist) {
      st.update_distance(lid, sidx, d);
      s.sigma = sigma;
    } else {
      s.sigma += sigma;
    }
    if (part_.host(h).is_master[lid]) {
      // A staged replay range owns whole words of the pending set.
      pending_[h].set(lid);
      if (!opts_.delayed_sync) stage_eager(h, lid, sidx, side, ord);
    } else {
      st.mark_dirty(lid, sidx);
      substrate_.flag_reduce(h, lid);
    }
  }

  void stage_eager(HostId h, graph::VertexId lid, std::uint32_t sidx, DrainSide& side,
                   std::uint64_t ord) {
    std::uint8_t& status = state_[h].slot(lid, sidx).status;
    if (status & SourceSlot::kEagerStaged) return;
    status |= SourceSlot::kEagerStaged;
    if (state_[h].to_broadcast[lid].empty()) side.append(lid, ord);
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

  /// Per-round pass over the pending masters, run between the reduce and
  /// broadcast phases of round `round`'s sync: with every contribution of
  /// the round already reduced, fire everything due. This is where the
  /// paper's rule "synchronize d and sigma in round r = d + l(d,s)" is
  /// evaluated. Ascending lid order, as a walk over all masters would fire
  /// them; a master leaves the set once every entry is sent.
  void schedule_forward(HostId h, std::uint32_t round) {
    HostState& st = state_[h];
    util::DynamicBitset& pending = pending_[h];
    bool active = false;
    pending.for_each_set_bit([&](std::size_t l) {
      const auto lid = static_cast<graph::VertexId>(l);
      flush_due_forward(h, lid, round);
      if (st.fwd_sent[lid] < st.entry_count(lid)) {
        active = true;
      } else {
        pending.reset(lid);
      }
    });
    host_active_[h] = active;
  }

  sim::HostWork compute_forward(HostId h) {
    HostState& st = state_[h];
    const auto& hg = part_.host(h);
    sim::HostWork w;
    end_staging(h);
    DrainSide host = host_side(h);
    // Drain finalized labels delivered this round (broadcast arrivals on
    // mirrors + the master's own scheduled entries): each is the CONGEST
    // "send along all out-edges", performed as local proxy updates.
    w.work_items = drain_round(
        scratch_[h], RoundEntries<DrainEntry>{worklist_[h], self_sched_[h]}, opts_.drain_grain,
        hg.num_proxies(), host,
        [&](const DrainEntry& e, auto&& emit) -> std::uint64_t {
          SourceSlot& s = st.slot(e.lid, e.sidx);
          s.status |= SourceSlot::kFwdFinal;
          const std::uint32_t dist = s.dist + 1;
          const double sigma = s.sigma;
          for (graph::VertexId tl : hg.local.out_neighbors(e.lid)) {
            emit(PushRec{tl, e.sidx, dist, sigma});
          }
          return hg.local.out_degree(e.lid);
        },
        [&](const PushRec& p, DrainSide& side, std::uint64_t ord) {
          combine_forward(h, p.target, p.sidx, p.dist, p.value, side, ord);
        });
    worklist_[h].clear();
    self_sched_[h].clear();
    // Re-evaluate after the drain: local pushes can seed brand-new entries
    // at same-host masters without setting any sync flag, and the loop
    // must not quiesce while any master still has unsent entries. Every
    // such master is in the pending set.
    const util::DynamicBitset& pending = pending_[h];
    bool active = false;
    for (std::size_t l = pending.find_first(); l < pending.size() && !active;
         l = pending.find_first_from(l + 1)) {
      active = st.fwd_sent[l] < st.entry_count(static_cast<graph::VertexId>(l));
    }
    w.active = active;
    return w;
  }

  /// Ends the staging the last broadcast sent, before a drain stages
  /// anew: empties each staged lid's list and clears the kEagerStaged marks
  /// of its non-final entries, the only ones stage_eager sets. What the
  /// drain and the next comm phase stage then reaches the next broadcast.
  void end_staging(HostId h) {
    HostState& st = state_[h];
    for (graph::VertexId lid : staged_lids_[h]) {
      for (const auto& [sidx, is_final] : st.to_broadcast[lid]) {
        if (is_final) continue;
        st.slot(lid, sidx).status &= static_cast<std::uint8_t>(~SourceSlot::kEagerStaged);
      }
      st.to_broadcast[lid].clear();
    }
    staged_lids_[h].clear();
  }

  // ---- Accumulation phase -------------------------------------------------

  /// Backward fire round of L_v entry `idx` at distance `d`. tau_sv is
  /// re-derived from the final list (Section 4.3: "we can derive the round
  /// in which sigma was sent using d_sv in the map ... and the number of
  /// already sent dependencies"); tau matches the shifted forward fire
  /// round d + position + 1, and A_sv = R - tau_sv + 1. Along reverse
  /// lexicographic order tau falls, so a vertex's fire rounds never fall.
  static std::uint32_t backward_fire(std::uint32_t d, std::size_t idx, std::uint32_t R) {
    const std::uint32_t tau = d + static_cast<std::uint32_t>(idx) + 2;
    return (R >= tau ? R - tau : 0) + 1;
  }

  /// Counting-sorts host h's unfired (master, entry) pairs by fire round.
  /// Labels are frozen once the forward phase ends, so every fire round is
  /// known up front. Within a round, masters ascend and each master's
  /// entries run in reverse lexicographic order: the order the per-master
  /// scan fired them in.
  void build_calendar(HostId h, std::uint32_t R) {
    const HostState& st = state_[h];
    Calendar& cal = calendar_[h];
    const std::uint32_t last = std::max<std::uint32_t>(R, 1);  // fire lies in [1, last]
    auto for_each_unfired = [&](auto&& fn) {
      for (graph::VertexId lid : masters_[h]) {
        const std::size_t count = st.entry_count(lid);
        for (std::size_t i = st.acc_sent[lid]; i < count; ++i) {
          const std::size_t idx = count - 1 - i;
          fn(lid, idx, backward_fire(st.nth_entry(lid, idx).first, idx, R));
        }
      }
    };
    cal.start.assign(last + 2, 0);
    for_each_unfired([&](graph::VertexId, std::size_t, std::uint32_t f) { ++cal.start[f + 1]; });
    for (std::uint32_t f = 1; f < last + 2; ++f) cal.start[f] += cal.start[f - 1];
    cal.entries.resize(cal.start[last + 1]);
    std::vector<std::uint32_t> fill(cal.start.begin(), cal.start.end() - 1);
    for_each_unfired([&](graph::VertexId lid, std::size_t idx, std::uint32_t f) {
      cal.entries[fill[f]++] = {lid, st.nth_entry(lid, idx).second};
    });
    cal.next = 0;
    cal.built = true;
  }

  /// Fires every calendar entry due by `next_round`, in calendar order.
  /// An entry due before `next_round` missed its round: an anomaly.
  void schedule_backward(HostId h, std::uint32_t next_round, std::uint32_t R) {
    HostState& st = state_[h];
    Calendar& cal = calendar_[h];
    if (!cal.built) build_calendar(h, R);
    const auto last = static_cast<std::uint32_t>(cal.start.size() - 2);
    for (; cal.next <= std::min(next_round, last); ++cal.next) {
      for (std::uint32_t i = cal.start[cal.next]; i < cal.start[cal.next + 1]; ++i) {
        const auto [lid, sidx] = cal.entries[i];
        if (cal.next < next_round) ++anomalies_[h];
        if (st.to_broadcast[lid].empty()) staged_lids_[h].push_back(lid);
        st.to_broadcast[lid].push_back({sidx, true});
        substrate_.flag_broadcast(h, lid);
        self_sched_[h].push_back({lid, sidx});
        ++st.acc_sent[lid];
      }
    }
    host_active_[h] = cal.start[cal.next] < cal.entries.size();
  }

  /// Applies one dependency contribution to a proxy (Alg. 5); the anomaly
  /// count and the eager staging list go through `side`, as in
  /// combine_forward.
  void combine_backward(HostId h, graph::VertexId lid, std::uint32_t sidx, double contribution,
                        DrainSide& side, std::uint64_t ord) {
    HostState& st = state_[h];
    SourceSlot& s = st.slot(lid, sidx);
    if (s.status & SourceSlot::kAccFinal) {
      side.count_anomaly();  // dependency arrived after its vertex fired
      return;
    }
    s.delta += contribution;
    if (part_.host(h).is_master[lid]) {
      if (!opts_.delayed_sync) stage_eager(h, lid, sidx, side, ord);
    } else {
      st.mark_dirty(lid, sidx);
      substrate_.flag_reduce(h, lid);
    }
  }

  sim::HostWork compute_backward(HostId h, std::uint32_t round, std::uint32_t R) {
    HostState& st = state_[h];
    const auto& hg = part_.host(h);
    sim::HostWork w;
    end_staging(h);
    DrainSide host = host_side(h);
    // A finalized dependency delta_sv turns into m = (1 + delta)/sigma sent
    // to the predecessors of v in s's SP DAG; predecessors are recognized
    // on each host by dist(w) + 1 == dist(v) (Alg. 5 step 7).
    //
    // A staged round is snapshot-safe here because replay only mutates
    // delta — the dist/sigma a Phase-A read sees are frozen for the whole
    // backward phase.
    w.work_items = drain_round(
        scratch_[h], RoundEntries<DrainEntry>{worklist_[h], self_sched_[h]}, opts_.drain_grain,
        hg.num_proxies(), host,
        [&](const DrainEntry& e, auto&& emit) -> std::uint64_t {
          SourceSlot& sv = st.slot(e.lid, e.sidx);
          sv.status |= SourceSlot::kAccFinal;
          if (sv.dist == kInfDist || sv.dist == 0 || sv.sigma == 0.0) return 0;
          const double m = (1.0 + sv.delta) / sv.sigma;
          for (graph::VertexId wl : hg.local.in_neighbors(e.lid)) {
            const SourceSlot& sw = st.slot(wl, e.sidx);
            if (sw.dist != kInfDist && sw.dist + 1 == sv.dist) {
              emit(PushRec{wl, e.sidx, 0, sw.sigma * m});
            }
          }
          return hg.local.in_degree(e.lid);
        },
        [&](const PushRec& p, DrainSide& side, std::uint64_t ord) {
          combine_backward(h, p.target, p.sidx, p.value, side, ord);
        });
    worklist_[h].clear();
    self_sched_[h].clear();
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

  /// A broadcast entry's is_final byte. Under delayed sync every broadcast
  /// entry is final, so the byte is neither written nor read; the eager
  /// ablation sends non-final entries too and keeps it.
  void write_final_mark(comm::CodecWriter& buf, bool is_final) const {
    if (!opts_.delayed_sync) buf.u8(is_final ? 1 : 0);
  }
  bool read_final_mark(comm::CodecReader& buf) const {
    return opts_.delayed_sync || buf.u8() != 0;
  }

  struct ForwardAccessor {
    BatchRunner& r;

    void serialize_reduce(HostId h, graph::VertexId lid, comm::CodecWriter& buf) {
      HostState& st = r.state_[h];
      auto& dirty = st.dirty_sources(lid);
      buf.meta_u32(static_cast<std::uint32_t>(dirty.size()));
      for (std::uint32_t sidx : dirty) {
        SourceSlot& s = st.slot(lid, sidx);
        buf.value_u32(sidx);
        buf.value_u32(s.dist);
        buf.f64(s.sigma);
        // Gluon reduce-reset: the mirror's partial returns to identity.
        // A mirror keeps no L_v row, so its distance lives in the slot only.
        s.dist = kInfDist;
        s.sigma = 0.0;
      }
      st.clear_dirty(lid);
    }

    void apply_reduce(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      DrainSide side = r.host_side(h);
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto d = buf.value_u32();
        const auto sigma = buf.f64();
        r.combine_forward(h, lid, sidx, d, sigma, side, 0);
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
        r.write_final_mark(buf, is_final);
      }
    }

    void apply_broadcast(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      HostState& st = r.state_[h];
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto d = buf.value_u32();
        const auto sigma = buf.f64();
        if (!r.read_final_mark(buf)) continue;  // eager-mode traffic only
        // Broadcast receivers are mirrors: no L_v row to maintain.
        SourceSlot& s = st.slot(lid, sidx);
        s.dist = d;
        s.sigma = sigma;
        r.worklist_[h].push_back({lid, sidx});
      }
    }
  };

  struct BackwardAccessor {
    /// A broadcast dependency is read only by walking the receiving
    /// mirror's local in-edges (compute_backward), so the substrate sends
    /// it only to mirrors that have one.
    static constexpr bool kReadsBroadcastsThroughInEdges = true;
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
      DrainSide side = r.host_side(h);
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto contribution = buf.f64();
        r.combine_backward(h, lid, sidx, contribution, side, 0);
      }
    }

    void serialize_broadcast(HostId h, graph::VertexId lid, comm::CodecWriter& buf) {
      const HostState& st = r.state_[h];
      const auto& staged = st.to_broadcast[lid];
      buf.meta_u32(static_cast<std::uint32_t>(staged.size()));
      for (const auto& [sidx, is_final] : staged) {
        buf.value_u32(sidx);
        buf.f64(st.slot(lid, sidx).delta);
        r.write_final_mark(buf, is_final);
      }
    }

    void apply_broadcast(HostId h, graph::VertexId lid, comm::CodecReader& buf) {
      HostState& st = r.state_[h];
      const auto n = buf.meta_u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto sidx = buf.value_u32();
        const auto delta = buf.f64();
        if (!r.read_final_mark(buf)) continue;
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
  std::vector<std::uint8_t> host_active_;  // not vector<bool>: hosts write concurrently
  std::vector<DrainScratch> scratch_;      ///< pooled drain buffers, per host
  // Delayed-sync scheduler state, derived from the labels and cursors and
  // never checkpointed (rebuilt in restore_checkpoint):
  std::vector<util::DynamicBitset> pending_;  ///< per host: masters that may hold unsent entries
  struct Calendar {
    std::vector<DrainEntry> entries;  ///< unfired (master, source) pairs in fire order
    std::vector<std::uint32_t> start;  ///< start[f]: first entry firing at round >= f
    std::uint32_t next = 0;            ///< first fire round not yet popped
    bool built = false;
  };
  std::vector<Calendar> calendar_;  ///< per host, backward phase only
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
