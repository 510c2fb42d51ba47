#pragma once
// Bulk-synchronous cluster simulator: the D-Galois execution model
// (Section 4.1 of the paper) on simulated hosts. Each BSP round is
//   communication (Gluon sync of flagged proxies)  ->  per-host computation
// matching the paper's "labels are synchronized by calling the Gluon API at
// the beginning of each BSP round before computation".
//
// Per-round accounting mirrors the paper's measurements:
//   - computation time: measured wall clock per host; the per-round maximum
//     accumulates into RunStats::compute_seconds
//   - load imbalance: max/mean of per-host *work units* per round (counters
//     are used instead of wall time because simulated hosts share one CPU,
//     making per-round timings too noisy on small rounds)
//   - communication: exact message/byte/value counts from the substrate,
//     converted to modeled seconds by NetworkModel.
//
// Fault tolerance (ClusterOptions::fault): when a FaultInjector is
// attached, the loop additionally
//   - scales measured per-host compute time by the injector's straggler
//     factors (modeled slow hosts);
//   - takes a coordinated checkpoint every checkpoint_interval rounds
//     through the Checkpointable hook (plus one at round 0), charging the
//     snapshot to NetworkModel::checkpoint_seconds;
//   - on a crash, rolls every host back to the last checkpoint and
//     replays; compute is deterministic, so replay is exact, and the
//     rounds spent re-executing are counted in FaultCounters::
//     recovery_rounds (logical round numbering is unaffected);
//   - folds the substrate's reliable-delivery counters into
//     RunStats::faults and charges retransmit backoff via
//     NetworkModel::retransmit_seconds.
//
// Permanent failures (ClusterOptions::membership): a FaultKind::kHostDeath
// event stalls the loop until the failure detector declares the host dead
// (missed-heartbeat rounds, charged at the detector deadline), hands the
// dead host's logical shards to survivors (engine/recovery.h), and then
// rolls back to the last coordinated checkpoint exactly like a crash. The
// logical computation is unchanged, so results and round counts stay
// bit-identical to a fault-free run; only the performance accounting
// degrades (adopted shards share their adopter's CPU, co-located pair
// traffic becomes local). Durable restarts (ClusterOptions::on_checkpoint
// plus the resume parameter of run()) persist each coordinated checkpoint
// through the caller, and a later run() continues from it as if the
// process had never exited.

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/substrate.h"
#include "engine/fault.h"
#include "engine/network_model.h"
#include "engine/recovery.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/threading.h"
#include "util/timer.h"

namespace mrbc::sim {

using comm::SyncStats;
using partition::HostId;

/// Result of one host's compute phase in one round.
struct HostWork {
  bool active = false;        ///< host still has local work pending
  std::uint64_t work_items = 0;  ///< operator applications (imbalance metric)
};

/// One row of the optional per-round execution trace. Every *executed*
/// round is recorded, including rounds that ended in a crash (flagged) and
/// the re-executions that replay after a rollback (which repeat logical
/// round numbers) — so the log's column sums reconcile exactly with the
/// aggregate RunStats counters, fault-injected runs included:
///   sum(messages/bytes/values/retransmits) == the RunStats totals,
///   sum(compute_seconds)                  == RunStats::compute_seconds,
///   sum(network_seconds)                  == RunStats::network_seconds
///                                            - faults.checkpoint_seconds
/// (checkpoint writes happen between rounds and are accounted separately).
struct RoundLogEntry {
  std::size_t round = 0;
  double compute_seconds = 0;   ///< max across hosts
  double network_seconds = 0;   ///< modeled (sync + retransmit recovery)
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t values = 0;
  std::uint64_t work_items = 0;  ///< total operator applications
  std::size_t retransmits = 0;   ///< reliable-delivery repairs this round
  bool crashed = false;          ///< a host crash fired at the end of this round
};

/// Where one execution's modeled time went — the paper's Figure 2 split
/// (computation vs non-overlapped communication) with the fault-tolerance
/// machinery broken out. Invariants, maintained by BspLoop:
///   compute_seconds == RunStats::compute_seconds
///   comm_seconds + recovery_seconds + checkpoint_seconds
///       == RunStats::network_seconds   (up to fp association)
struct PhaseBreakdown {
  double comm_seconds = 0;        ///< modeled sync + barrier time
  double compute_seconds = 0;     ///< per-round max host compute, summed
  double checkpoint_seconds = 0;  ///< coordinated snapshot writes
  double recovery_seconds = 0;    ///< retransmit backoff + repair traffic

  double total() const {
    return comm_seconds + compute_seconds + checkpoint_seconds + recovery_seconds;
  }
  PhaseBreakdown& operator+=(const PhaseBreakdown& other);
};

/// Aggregated fault/recovery counters for one BSP execution; all zero on a
/// fault-free run.
struct FaultCounters {
  std::size_t drops = 0;                  ///< transmission attempts lost in transit
  std::size_t duplicates = 0;             ///< frames delivered twice by the wire
  std::size_t duplicates_suppressed = 0;  ///< stale frames rejected by sequence number
  std::size_t corruptions_detected = 0;   ///< CRC32 mismatches caught
  std::size_t retransmits = 0;            ///< extra transmission attempts
  std::size_t retransmit_bytes = 0;       ///< retransmit + duplicate traffic
  std::size_t forced_deliveries = 0;      ///< escalated final delivery attempts
  std::size_t checkpoints = 0;            ///< coordinated snapshots taken
  std::size_t checkpoint_bytes = 0;       ///< serialized snapshot volume
  std::size_t crashes = 0;                ///< host crashes recovered from
  std::size_t recovery_rounds = 0;        ///< rounds re-executed after rollback
  std::size_t deaths = 0;                 ///< permanent host losses declared
  std::size_t handoffs = 0;               ///< logical shards adopted by survivors
  std::size_t handoff_bytes = 0;          ///< modeled checkpoint-slice transfer to adopters
  std::size_t detection_rounds = 0;       ///< stalled rounds spent declaring deaths
  std::size_t suspect_rounds = 0;         ///< late-heartbeat (straggler) observations
  double retransmit_seconds = 0;          ///< modeled recovery-traffic time
  double checkpoint_seconds = 0;          ///< modeled snapshot-write time
  double detection_seconds = 0;           ///< modeled detector-stall time
  double handoff_seconds = 0;             ///< modeled shard-transfer time

  FaultCounters& operator+=(const FaultCounters& other);
};

/// Aggregated statistics for one BSP execution.
struct RunStats {
  std::size_t rounds = 0;
  double compute_seconds = 0;    ///< sum over rounds of max-host compute time
  double network_seconds = 0;    ///< modeled communication + barrier + recovery time
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t raw_bytes = 0;     ///< fixed-width-equivalent bytes (codec denominator)
  std::size_t values = 0;
  double imbalance_sum = 0;      ///< sum over rounds of per-round work imbalance
  std::vector<double> per_host_compute_seconds;  ///< total per host
  std::vector<RoundLogEntry> round_log;  ///< filled when record_round_log
  FaultCounters faults;          ///< fault-injection/recovery counters
  PhaseBreakdown phases;         ///< comm/compute/checkpoint/recovery split

  /// Paper's load-imbalance metric: per-round max/mean work, averaged.
  double mean_imbalance() const { return rounds ? imbalance_sum / static_cast<double>(rounds) : 1.0; }

  /// Modeled execution time (computation + non-overlapped communication).
  double total_seconds() const { return compute_seconds + network_seconds; }

  /// "Non-overlapped communication" in the paper's breakdown includes wait
  /// time at barriers induced by imbalance; our network_seconds plays that
  /// role directly since compute_seconds already takes the per-round max.
  RunStats& operator+=(const RunStats& other);

  /// Folds one communication phase in: its traffic and fault counters,
  /// `sync_seconds` of modeled sync time (phases.comm_seconds) and
  /// `retransmit_seconds` of modeled repair time (phases.recovery_seconds).
  void add_comm(const SyncStats& comm, double sync_seconds, double retransmit_seconds);

  /// Fraction of executed rounds that made forward progress: detection
  /// stalls and post-rollback replays are availability loss. 1.0 on a
  /// fault-free run.
  double availability() const {
    const double overhead =
        static_cast<double>(faults.recovery_rounds + faults.detection_rounds);
    const double productive = static_cast<double>(rounds);
    return productive + overhead > 0.0 ? productive / (productive + overhead) : 1.0;
  }
};

/// One coordinated checkpoint as handed to the durable layer: the logical
/// round it was taken at the end of, the loop-control flag needed to
/// resume, and the full application + substrate snapshot bytes. BspLoop
/// hands on_checkpoint the checkpoint it would roll back to, not a copy,
/// so the reference is valid only for the duration of the callback.
struct LoopCheckpoint {
  std::size_t round = 0;
  bool any_active = true;
  std::vector<std::uint8_t> snapshot;
};

/// Folds the stats captured in a durable checkpoint with the stats of the
/// resumed execution that continued from it. Counters add; `rounds` keeps
/// the absolute logical round number (the resumed loop continues the same
/// numbering, so the larger of the two is the final round). For
/// deterministic counters the merge equals the uninterrupted run exactly;
/// measured wall-clock fields are sums of the two executions.
RunStats merge_resumed(const RunStats& saved, const RunStats& resumed);

/// Options controlling the simulated execution.
struct ClusterOptions {
  NetworkModel network;
  bool parallel_hosts = false;  ///< run host compute phases on the pool
  /// Execution-engine width: total threads (workers + caller) the shared
  /// util::ThreadPool runs with. 0 keeps the pool's current size
  /// (ThreadPool::default_threads() — MRBC_THREADS env or
  /// hardware_threads() — on first use); BspLoop::run resizes the global
  /// pool when nonzero. 1 forces fully sequential execution.
  std::size_t threads = 0;
  std::size_t max_rounds = 1u << 22;
  /// Record a RoundLogEntry per round into RunStats::round_log (off by
  /// default: traces of long runs are large).
  bool record_round_log = false;

  // ---- Fault tolerance ----------------------------------------------------
  /// Fault source for this execution; nullptr = fault-free (zero overhead,
  /// historical behavior). Non-owning; one injector may serve several
  /// loops (its crash fires once across all of them).
  FaultInjector* fault = nullptr;
  /// Retransmit lost/corrupt frames (reliable delivery). When false,
  /// corruption is still detected (CRC) but lost data is not repaired.
  bool reliable_delivery = true;
  /// Rounds between coordinated checkpoints (crash recovery granularity).
  std::size_t checkpoint_interval = 8;
  /// Wire codec for sync/scatter messages (comm/codec.h). kRaw keeps the
  /// historical fixed-width wire; kMetadataOnly/kFull shrink the simulated
  /// byte counts (and hence modeled network_seconds) without changing any
  /// decoded label — results are bit-identical across modes.
  comm::CodecMode codec = comm::CodecMode::kRaw;

  // ---- Permanent failures & durable checkpoints ---------------------------
  /// Logical→physical membership map enabling ownership handoff. nullptr
  /// disables permanent-failure recovery (a kHostDeath event is then
  /// recorded but unrecoverable, like a crash without checkpointing).
  /// Non-owning and stateful: deaths declared during the run mutate it, so
  /// pass a fresh (or reset()) map per independent run.
  Membership* membership = nullptr;
  /// Durable-checkpoint hook: called after every coordinated checkpoint
  /// with the fresh snapshot and the stats accumulated so far. Setting it
  /// enables checkpointing even without a fault injector (restart-from-disk
  /// support for fault-free runs). The callback may throw to abort the run
  /// (e.g. simulating a process death in tests); the exception propagates
  /// out of run().
  std::function<void(const LoopCheckpoint&, const RunStats&)> on_checkpoint;

  /// Delivery configuration implied by the fault fields; applications
  /// install this on their Substrate before running the loop.
  comm::DeliveryOptions delivery() const {
    comm::DeliveryOptions d;
    d.faults = fault;
    d.reliable = fault != nullptr && reliable_delivery;
    d.codec = codec;
    return d;
  }
};

/// Runs a BSP loop until quiescence.
///
///   comm(round)      -> SyncStats   performed at the start of each round
///   compute(h,round) -> HostWork    per-host operator
///   pending()        -> bool        substrate flags still set (work queued)
///   app (optional)   -> Checkpointable hook for crash recovery
///
/// Terminates before executing a round when no host is active, the last
/// comm moved nothing, and nothing is pending — the "global quiescence
/// condition" of Lemma 8, which D-Galois detects without extra rounds.
/// Reliable delivery repairs message faults within their round, so no flag
/// is ever "in flight" across a barrier and quiescence cannot fire early.
class BspLoop {
 public:
  explicit BspLoop(HostId num_hosts, ClusterOptions options = {})
      : num_hosts_(num_hosts), options_(options) {}

  template <typename CommFn, typename ComputeFn, typename PendingFn>
  RunStats run(CommFn&& comm, ComputeFn&& compute, PendingFn&& pending,
               Checkpointable* app = nullptr, const LoopCheckpoint* resume = nullptr) {
    RunStats stats;
    stats.per_host_compute_seconds.assign(num_hosts_, 0.0);
    if (options_.threads != 0) util::ThreadPool::set_global_threads(options_.threads);
    FaultInjector* fault = options_.fault;
    Membership* membership = options_.membership;
    const bool checkpointing =
        app != nullptr &&
        (fault != nullptr || options_.on_checkpoint != nullptr || resume != nullptr);
    const std::size_t interval = std::max<std::size_t>(options_.checkpoint_interval, 1);
    LoopCheckpoint ckpt;  // latest coordinated checkpoint: the rollback point
    FailureDetector detector(num_hosts_, options_.network);
    auto take_checkpoint = [&](std::size_t ckpt_round, bool ckpt_any_active) {
      {
        // Measured serialization time, beside the modeled write below.
        obs::Span save_span(obs::Category::kCheckpoint, "checkpoint-save", obs::kEngineHost,
                            static_cast<std::uint32_t>(ckpt_round));
        // Refills the previous snapshot's allocation: every checkpoint of a
        // run has about the same size.
        util::SendBuffer buf(std::move(ckpt.snapshot));
        app->save_checkpoint(buf);
        ckpt.snapshot = buf.take();
      }
      ckpt.round = ckpt_round;
      ckpt.any_active = ckpt_any_active;
      stats.faults.checkpoints += 1;
      stats.faults.checkpoint_bytes += ckpt.snapshot.size();
      const double seconds = options_.network.checkpoint_seconds(ckpt.snapshot.size());
      stats.faults.checkpoint_seconds += seconds;
      stats.phases.checkpoint_seconds += seconds;
      stats.network_seconds += seconds;
      if (obs::tracing_enabled()) {
        obs::Tracer::global().emit_modeled(obs::Category::kCheckpoint, "checkpoint",
                                           obs::kEngineHost,
                                           static_cast<std::uint32_t>(ckpt_round), seconds);
      }
      // The callback gets the rollback checkpoint itself, read-only, so a
      // callback that throws cannot leave it half-written.
      if (options_.on_checkpoint) options_.on_checkpoint(ckpt, stats);
    };

    bool any_active = true;  // force the first round
    std::size_t round = 0;
    if (checkpointing && resume != nullptr) {
      // Cold restart: adopt the durable snapshot as the current coordinated
      // checkpoint and restore the application into it. No checkpoint cost
      // is charged — the snapshot already exists on stable storage.
      ckpt = *resume;
      util::RecvBuffer buf(ckpt.snapshot.data(), ckpt.snapshot.size());
      app->restore_checkpoint(buf);
      round = resume->round;
      any_active = resume->any_active;
    } else if (checkpointing) {
      take_checkpoint(0, true);
    }
    while (round < options_.max_rounds && (any_active || pending())) {
      ++round;
      // (host, round) context for spans and log lines emitted below us —
      // the comm substrate tags its reduce/broadcast spans from it.
      obs::ScopedContext round_ctx(obs::kEngineHost, static_cast<std::uint32_t>(round));
      const SyncStats comm_stats = comm(round);
      std::size_t max_egress = 0;
      std::size_t max_msgs = 0;
      if (membership != nullptr && membership->degraded()) {
        // Degraded mode: co-located logical hosts share one NIC, so the
        // network model's per-host maxima are taken over physical hosts.
        std::vector<std::size_t> egress(num_hosts_, 0);
        std::vector<std::size_t> msgs(num_hosts_, 0);
        for (std::size_t h = 0; h < comm_stats.bytes_per_host.size(); ++h) {
          egress[membership->physical(static_cast<HostId>(h))] += comm_stats.bytes_per_host[h];
        }
        for (std::size_t h = 0; h < comm_stats.msgs_per_host.size(); ++h) {
          msgs[membership->physical(static_cast<HostId>(h))] += comm_stats.msgs_per_host[h];
        }
        for (std::size_t b : egress) max_egress = std::max(max_egress, b);
        for (std::size_t m : msgs) max_msgs = std::max(max_msgs, m);
      } else {
        for (std::size_t b : comm_stats.bytes_per_host) max_egress = std::max(max_egress, b);
        for (std::size_t m : comm_stats.msgs_per_host) max_msgs = std::max(max_msgs, m);
      }
      const double sync_seconds = options_.network.round_seconds(max_msgs, max_egress);
      const double retransmit_seconds =
          options_.network.retransmit_seconds(comm_stats.backoff_steps, comm_stats.retransmit_bytes);
      const double net_seconds = sync_seconds + retransmit_seconds;
      stats.add_comm(comm_stats, sync_seconds, retransmit_seconds);
      const bool tracing = obs::tracing_enabled();
      if (tracing) {
        // The comm span carries the *modeled* sync + recovery time: the
        // simulator models network time rather than measuring it, and this
        // is the number Figure-2-style breakdowns attribute per round.
        obs::Tracer::global().emit_modeled(obs::Category::kComm, "comm", obs::kEngineHost,
                                           static_cast<std::uint32_t>(round), net_seconds);
      }

      std::vector<HostWork> work(num_hosts_);
      std::vector<double> host_seconds(num_hosts_, 0.0);
      std::vector<double> span_starts;
      if (tracing) span_starts.assign(num_hosts_, 0.0);
      util::for_each_index(num_hosts_, options_.parallel_hosts, [&](std::size_t h) {
        obs::ScopedContext host_ctx(static_cast<std::uint32_t>(h),
                                    static_cast<std::uint32_t>(round));
        if (tracing) span_starts[h] = obs::Tracer::global().now_us();
        util::Timer timer;
        work[h] = compute(static_cast<HostId>(h), round);
        host_seconds[h] = timer.seconds();
      });
      any_active = false;
      std::vector<double> work_units(num_hosts_);
      double max_seconds = 0.0;
      HostId slowest = 0;
      for (HostId h = 0; h < num_hosts_; ++h) {
        any_active = any_active || work[h].active;
        work_units[h] = static_cast<double>(work[h].work_items);
        if (fault) host_seconds[h] *= fault->compute_slowdown(h);  // straggler model
        stats.per_host_compute_seconds[h] += host_seconds[h];
        if (host_seconds[h] > max_seconds) {
          max_seconds = host_seconds[h];
          slowest = h;
        }
      }
      if (membership != nullptr && membership->degraded()) {
        // Adopted shards execute serially on their adopter, so the round's
        // compute critical path is the max over physical hosts of the sum
        // of their logical shards' times.
        std::vector<double> physical_seconds(num_hosts_, 0.0);
        for (HostId h = 0; h < num_hosts_; ++h) {
          physical_seconds[membership->physical(h)] += host_seconds[h];
        }
        max_seconds = 0.0;
        for (double s : physical_seconds) max_seconds = std::max(max_seconds, s);
      }
      if (membership != nullptr) {
        // Heartbeats: one per alive physical host carrying its round time.
        std::vector<double> physical_seconds(num_hosts_, 0.0);
        for (HostId h = 0; h < num_hosts_; ++h) {
          physical_seconds[membership->physical(h)] += host_seconds[h];
        }
        for (HostId p = 0; p < num_hosts_; ++p) {
          if (membership->is_alive(p)) detector.observe(p, physical_seconds[p] + net_seconds);
        }
        detector.finish_round();
      }
      stats.compute_seconds += max_seconds;
      stats.phases.compute_seconds += max_seconds;
      stats.imbalance_sum += util::imbalance(work_units);
      std::uint64_t total_work = 0;
      for (const HostWork& hw : work) total_work += hw.work_items;
      if (tracing) {
        obs::Tracer& tracer = obs::Tracer::global();
        for (HostId h = 0; h < num_hosts_; ++h) {
          // Straggler-scaled measured time: matches per_host_compute_seconds.
          tracer.emit(obs::Category::kCompute, "host-compute", h,
                      static_cast<std::uint32_t>(round), span_starts[h],
                      host_seconds[h] * 1e6);
        }
        // One engine-lane span per executed round carrying the per-round
        // max — these sum to RunStats::compute_seconds exactly.
        tracer.emit(obs::Category::kCompute, "compute", obs::kEngineHost,
                    static_cast<std::uint32_t>(round), span_starts[slowest],
                    max_seconds * 1e6);
      }
      if (obs::metrics_enabled()) {
        obs::Metrics& m = obs::Metrics::global();
        m.histogram(obs::Hist::kRoundBytes).record(comm_stats.bytes);
        m.histogram(obs::Hist::kRoundMessages).record(comm_stats.messages);
        m.histogram(obs::Hist::kRoundWorkItems).record(total_work);
      }

      // Crash / death? The failed round's traffic/compute stays in the
      // aggregate accounting — that cost was really paid before the
      // failure — and its round-log entry is recorded (flagged) for the
      // same reason, BEFORE any rollback, so log sums always reconcile
      // with the aggregates.
      HostId dead = 0;
      const bool crashed = fault && fault->crash_due(round, &dead);
      std::vector<HostId> deaths;
      if (fault != nullptr) {
        HostId d = 0;
        while (fault->death_due(round, &d)) deaths.push_back(d);
      }
      if (options_.record_round_log) {
        RoundLogEntry entry;
        entry.round = round;
        entry.compute_seconds = max_seconds;
        entry.network_seconds = net_seconds;
        entry.messages = comm_stats.messages;
        entry.bytes = comm_stats.bytes;
        entry.values = comm_stats.values;
        entry.retransmits = comm_stats.retransmits;
        entry.work_items = total_work;
        entry.crashed = crashed || !deaths.empty();
        stats.round_log.push_back(entry);
      }
      if (crashed) stats.faults.crashes += 1;
      if (!deaths.empty() && membership != nullptr && checkpointing) {
        // Permanent host loss: detect, hand off ownership, then roll back
        // to the last coordinated checkpoint and replay on the survivors.
        obs::Span death_span(obs::Category::kRecovery, "host-death", obs::kEngineHost,
                             static_cast<std::uint32_t>(round));
        // Resolve each scheduled death onto a currently-alive physical
        // host (an already-dead target redirects to the adopter of its own
        // shard, deterministically); the last survivor can never die.
        std::vector<HostId> dying;
        for (HostId d : deaths) {
          const HostId p = membership->resolve_alive(d);
          const bool seen = std::find(dying.begin(), dying.end(), p) != dying.end();
          if (!seen && membership->is_alive(p) &&
              membership->num_alive() > static_cast<HostId>(dying.size()) + 1) {
            dying.push_back(p);
          }
        }
        if (!dying.empty()) {
          // Detection: the loop stalls until every dying host has missed
          // kDeadAfter consecutive heartbeat deadlines. Survivors wait out
          // one detector deadline per stalled round.
          std::size_t stall_rounds = 0;
          bool all_declared = false;
          while (!all_declared) {
            for (HostId p : dying) detector.observe_missing(p);
            detector.finish_round();
            ++stall_rounds;
            all_declared = true;
            for (HostId p : dying) all_declared = all_declared && detector.dead(p);
          }
          const double stall_seconds =
              static_cast<double>(stall_rounds) * detector.deadline_seconds();
          stats.faults.detection_rounds += stall_rounds;
          stats.faults.detection_seconds += stall_seconds;
          stats.network_seconds += stall_seconds;
          stats.phases.recovery_seconds += stall_seconds;
          // Handoff: survivors adopt the dead hosts' logical shards and
          // reload those shards' slice of the last durable checkpoint.
          std::size_t moved = 0;
          for (HostId p : dying) moved += membership->declare_dead(p).size();
          const std::size_t transfer_bytes =
              num_hosts_ > 0 ? ckpt.snapshot.size() * moved / num_hosts_ : 0;
          stats.faults.deaths += dying.size();
          stats.faults.handoffs += moved;
          stats.faults.handoff_bytes += transfer_bytes;
          const double handoff_seconds = options_.network.checkpoint_seconds(transfer_bytes);
          stats.faults.handoff_seconds += handoff_seconds;
          stats.network_seconds += handoff_seconds;
          stats.phases.recovery_seconds += handoff_seconds;
          if (obs::tracing_enabled()) {
            obs::Tracer::global().emit_modeled(obs::Category::kRecovery, "handoff",
                                               obs::kEngineHost,
                                               static_cast<std::uint32_t>(round),
                                               stall_seconds + handoff_seconds);
          }
          app->on_membership_change(*membership);
          // Rollback & replay, exactly like a transient crash.
          stats.faults.recovery_rounds += round - ckpt.round;
          util::RecvBuffer buf(ckpt.snapshot.data(), ckpt.snapshot.size());
          app->restore_checkpoint(buf);
          round = ckpt.round;
          any_active = ckpt.any_active;
          continue;
        }
      } else if (!deaths.empty()) {
        // No membership map (or no checkpointing): the deaths are recorded
        // but unrecoverable.
        stats.faults.deaths += deaths.size();
      }
      if (crashed) {
        if (checkpointing) {
          // Roll every host back to the last coordinated checkpoint and
          // replay; replayed rounds append fresh log entries under their
          // (repeated) logical round numbers.
          obs::Span rollback_span(obs::Category::kRecovery, "rollback", obs::kEngineHost,
                                  static_cast<std::uint32_t>(round));
          stats.faults.recovery_rounds += round - ckpt.round;
          util::RecvBuffer buf(ckpt.snapshot.data(), ckpt.snapshot.size());
          app->restore_checkpoint(buf);
          round = ckpt.round;
          any_active = ckpt.any_active;
          continue;
        }
        // No checkpoint hook: the crash is recorded but not recoverable.
      }

      stats.rounds = round;
      if (checkpointing && round % interval == 0) take_checkpoint(round, any_active);
      if (obs::progress_enabled()) {
        obs::progress_tick(round, stats.compute_seconds, stats.network_seconds, stats.bytes);
      }
    }
    if (membership != nullptr) {
      // Diagnostic only: late-heartbeat counts depend on measured wall
      // clock, so this is reported but never asserted deterministic.
      stats.faults.suspect_rounds += detector.suspect_observations();
    }
    return stats;
  }

 private:
  HostId num_hosts_;
  ClusterOptions options_;
};

}  // namespace mrbc::sim
