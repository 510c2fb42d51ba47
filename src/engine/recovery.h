#pragma once
// Ownership handoff for the simulated cluster: the map that lets a run
// survive losing a host for good (as opposed to the transient
// crash/rollback model in engine/fault.h). Together with the durable
// snapshots in engine/snapshot.h it also survives the process dying.
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
// Deaths are declared by sim::BspLoop, which models the missed-heartbeat
// protocol at a fixed cost: every live host heartbeats every round, so a
// host that dies is declared dead after BspLoop::kDeadAfter missed
// heartbeats, each waited out for NetworkModel::heartbeat_deadline_seconds.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "partition/partition.h"
#include "util/serialize.h"

namespace mrbc::sim {

using partition::HostId;

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
  /// Mirror of save() for a map over this map's host count. Throws
  /// std::out_of_range, leaving the map unchanged, on what save() never
  /// writes: another host count, a physical host >= num_logical(), a shard
  /// placed on a dead host, or no live host at all.
  void restore(util::RecvBuffer& buf);

 private:
  std::vector<HostId> logical_to_physical_;
  std::vector<std::uint8_t> alive_;  ///< physical-host liveness
  HostId num_alive_ = 0;
};

}  // namespace mrbc::sim
