#pragma once
// Permanent-failure machinery for the simulated cluster: failure detection
// and ownership handoff. Together with the durable snapshots in
// engine/snapshot.h this is what lets a run survive losing a host for good
// (as opposed to the transient crash/rollback model in engine/fault.h).
//
// The design splits hosts into *logical* and *physical*. A Partition's H
// hosts are logical and immutable for the lifetime of a run: the message
// schedule, floating-point apply order, and round structure are all
// expressed over logical hosts. A Membership maps every logical host to
// the physical host that executes it (the identity map while the cluster
// is healthy). When a physical host is declared dead, each of its logical
// shards is adopted wholesale by a deterministically chosen survivor
// (partition::handoff_owner), so the *logical* computation — and therefore
// the BC output and the round count — is bit-identical to a fault-free
// run. Degradation is purely a performance model: co-located logical
// hosts' compute time sums on their adopter, and host-pair messages whose
// endpoints share a physical host become local memory moves
// (Substrate::set_placement).
//
// Failure detection models the observable protocol: each BSP round every
// physical host's heartbeat (its measured round time) is checked against a
// deadline derived from NetworkModel and an EWMA of recent rounds. A host
// whose heartbeat is *late* is a straggler: it is marked suspect and
// waited for with exponentially backed-off deadlines, but never declared
// dead (the heartbeat exists). A host whose heartbeat is *missing* for
// kDeadAfter consecutive rounds is declared permanently dead, at which
// point BspLoop performs the handoff and rolls back to the last
// coordinated checkpoint.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/network_model.h"
#include "partition/partition.h"
#include "util/serialize.h"

namespace mrbc::sim {

using partition::HostId;

enum class HostStatus : std::uint8_t { kAlive, kSuspect, kDead };

/// Missed-heartbeat failure detector over physical hosts. Fed once per BSP
/// round; deterministic given the same observation sequence.
class FailureDetector {
 public:
  /// Round deadline = kDeadlineMultiplier * max(EWMA round time,
  /// kappa_barrier): headroom over the typical round so ordinary jitter
  /// never trips it.
  static constexpr double kDeadlineMultiplier = 8.0;
  /// Floor for the deadline in seconds (tiny simulated rounds would
  /// otherwise produce sub-microsecond deadlines).
  static constexpr double kMinDeadlineSeconds = 1e-4;
  /// EWMA smoothing factor for the round-time baseline.
  static constexpr double kEwmaAlpha = 0.2;
  /// Consecutive late heartbeats before a host is marked suspect.
  static constexpr std::size_t kSuspectAfter = 1;
  /// Per-step growth of a suspect host's deadline (the "wait with backoff"
  /// grace that keeps stragglers from being declared dead).
  static constexpr double kBackoffGrowth = 1.5;
  /// Consecutive *missing* heartbeats before a host is declared dead.
  static constexpr std::size_t kDeadAfter = 3;

  FailureDetector(HostId num_hosts, const NetworkModel& network);

  /// Heartbeat from host `h` carrying its round time. On-time heartbeats
  /// decay suspicion; late ones (past the host's backed-off deadline) mark
  /// the host suspect and are counted in suspect_observations().
  void observe(HostId h, double seconds);

  /// No heartbeat from `h` this round; kDeadAfter consecutive misses
  /// transition the host to kDead.
  void observe_missing(HostId h);

  /// Ends the observation round: folds the round's on-time heartbeats into
  /// the EWMA baseline that future deadlines derive from.
  void finish_round();

  HostStatus status(HostId h) const;
  bool dead(HostId h) const { return status(h) == HostStatus::kDead; }

  /// Current base deadline (before per-host backoff).
  double deadline_seconds() const;
  /// Effective deadline for `h`: the base deadline grown by kBackoffGrowth
  /// per consecutive late heartbeat (capped), so suspects get extra grace.
  double deadline_seconds(HostId h) const;

  std::size_t consecutive_misses(HostId h) const { return misses_[h]; }
  /// Total late-heartbeat observations (straggler diagnostics).
  std::size_t suspect_observations() const { return suspect_observations_; }

 private:
  NetworkModel network_;
  double ewma_seconds_ = 0.0;
  bool ewma_primed_ = false;
  double round_max_seconds_ = 0.0;
  bool round_has_observation_ = false;
  std::vector<std::size_t> late_;    ///< consecutive late heartbeats per host
  std::vector<std::size_t> misses_;  ///< consecutive missing heartbeats per host
  std::vector<std::uint8_t> dead_;
  std::size_t suspect_observations_ = 0;
};

/// Logical→physical host map; the unit of ownership handoff. Starts as the
/// identity over `num_hosts` hosts; declare_dead() relocates the dead
/// physical host's logical shards onto survivors via
/// partition::handoff_owner. Serializable so degraded-mode runs can cold-
/// restart from a durable snapshot with the same placement.
class Membership {
 public:
  explicit Membership(HostId num_hosts);

  HostId num_logical() const { return static_cast<HostId>(logical_to_physical_.size()); }
  HostId physical(HostId logical) const { return logical_to_physical_[logical]; }
  const std::vector<HostId>& logical_to_physical() const { return logical_to_physical_; }

  bool is_alive(HostId physical) const { return alive_[physical] != 0; }
  HostId num_alive() const { return num_alive_; }
  std::vector<HostId> alive_hosts() const;
  /// True once any host has died (the cluster runs degraded).
  bool degraded() const { return num_alive_ < num_logical(); }

  /// Maps a scheduled death target onto a currently-alive physical host:
  /// if `physical` already died, its shards moved, so the death lands on
  /// the adopter of its own logical shard — deterministic, which keeps
  /// multi-death fault schedules replayable.
  HostId resolve_alive(HostId physical) const;

  /// Declares `physical` dead and re-owns every logical shard it was
  /// executing. Returns the relocated logical host ids (empty if the host
  /// was already dead or is the last survivor — the run cannot lose its
  /// final host).
  std::vector<HostId> declare_dead(HostId physical);

  /// Back to the healthy identity map (fresh runs reusing the object).
  void reset();

  void save(util::SendBuffer& buf) const;
  void restore(util::RecvBuffer& buf);

 private:
  std::vector<HostId> logical_to_physical_;
  std::vector<std::uint8_t> alive_;  ///< physical-host liveness
  HostId num_alive_ = 0;
};

}  // namespace mrbc::sim
