#pragma once
// Deterministic fault injection and recovery hooks for the simulated
// cluster. The paper's correctness argument (Lemmas 7-8) assumes a
// lossless CONGEST/BSP substrate: every flagged proxy label arrives
// exactly once, in its prescribed round. This layer makes that assumption
// explicit and testable by injecting the faults a real fabric exhibits —
// message drops, duplicate deliveries, payload bit-flips, compute
// stragglers, and host crashes — from a single seed, so any failing fault
// schedule is reproducible bit-for-bit.
//
// Recovery is split across two mechanisms:
//   - message faults are masked by the comm substrate's reliable-delivery
//     protocol (CRC32 + sequence numbers + bounded retransmit), which
//     repairs a frame *within its BSP round* so the delayed-sync schedule
//     and quiescence detection are unaffected;
//   - host crashes are handled by coordinated checkpoint/rollback in
//     sim::BspLoop: every K rounds the application snapshots its per-host
//     label state through the Checkpointable hook; a crash rolls all hosts
//     back to the last checkpoint and replays (deterministic compute makes
//     the replay exact);
//   - permanent host deaths (FaultKind::kHostDeath) additionally hand the
//     dead host's logical shard to a surviving physical host (see
//     engine/recovery.h) before the rollback, so the run continues in
//     degraded mode; logical execution is unchanged, which keeps BC
//     output bit-identical to a fault-free run.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/substrate.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace mrbc::sim {

using partition::HostId;

class Membership;  // engine/recovery.h

/// What happens to the host named by a FaultEvent.
enum class FaultKind : std::uint8_t {
  kCrash = 0,      ///< transient: rollback + replay, host rejoins
  kHostDeath = 1,  ///< permanent: shard handed to a survivor, host never returns
};

/// One scheduled compute-level fault. Events fire at the end of their BSP
/// round, at most once per injector lifetime (round numbering restarts
/// during replay, so an already-fired event cannot re-fire while its round
/// is re-executed).
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  std::uint32_t round = 0;  ///< BSP round the fault strikes in (0 = never)
  HostId host = 0;          ///< target host (taken modulo host count)
};

/// Seeded description of a fault schedule. All rates are per-transmission
/// probabilities in [0, 1]; a default-constructed plan is fault-free.
struct FaultPlan {
  std::uint64_t seed = 1;

  // Message-level faults (consulted per transmission attempt).
  double drop_rate = 0.0;       ///< attempt lost in transit
  double duplicate_rate = 0.0;  ///< frame delivered twice
  double corrupt_rate = 0.0;    ///< one payload bit flipped in transit

  // Compute-level faults.
  double straggler_rate = 0.0;       ///< probability a host is a straggler
  double straggler_slowdown = 4.0;   ///< compute-time multiplier for stragglers

  /// Scheduled crashes and permanent deaths. Of the events of one kind due
  /// in the same round, the earliest in this list fires first.
  std::vector<FaultEvent> events;

  /// Serialization (versioned inside the caller's framing): a plan written
  /// with save() and read back with restore() replays bit-identically.
  /// restore() throws std::out_of_range on another version or an event
  /// kind save() never writes.
  void save(util::SendBuffer& buf) const;
  void restore(util::RecvBuffer& buf);
};

/// Draws every fault decision deterministically from FaultPlan::seed.
/// One injector instance serves both the comm layer (via ChannelFaults)
/// and the BSP loop (stragglers, crashes, deaths). Each scheduled event
/// fires at most once per injector lifetime, so rollback-and-replay cannot
/// crash-loop.
class FaultInjector final : public comm::ChannelFaults {
 public:
  FaultInjector(const FaultPlan& plan, HostId num_hosts);

  // ChannelFaults (message-level, deterministic draw order).
  bool drop(HostId src, HostId dst, std::uint64_t seq) override;
  bool duplicate(HostId src, HostId dst, std::uint64_t seq) override;
  long corrupt_bit(HostId src, HostId dst, std::uint64_t seq,
                   std::size_t payload_bytes) override;

  /// Compute-time multiplier for host `h` (1.0 for non-stragglers); fixed
  /// per host for the injector's lifetime, derived from the seed.
  double compute_slowdown(HostId h) const;

  /// True exactly once per kCrash event whose round == `round`; writes
  /// the (modulo-reduced) crashed host to `crashed` unless it is null.
  /// Call in a loop to drain several crashes in one round.
  bool crash_due(std::size_t round, HostId* crashed) {
    return fire(FaultKind::kCrash, round, crashed);
  }

  /// True exactly once per kHostDeath event whose round == `round`; writes
  /// the (modulo-reduced) dead host to `dead`. Call in a loop to drain
  /// several deaths scheduled for the same round.
  bool death_due(std::size_t round, HostId* dead) {
    return fire(FaultKind::kHostDeath, round, dead);
  }

  /// Re-arms every scheduled fault and reseeds the RNG: the same plan
  /// replays the same schedule from the start (fresh runs in tests and
  /// benches).
  void rearm();

  /// Serializes the injector's progress through the fault schedule — RNG
  /// state and which scheduled events already fired — so a cold restart
  /// does not replay faults the interrupted run already survived.
  /// restore_cursor throws std::out_of_range, before changing anything, on
  /// a cursor saved under a plan with another number of events.
  void save_cursor(util::SendBuffer& buf) const;
  void restore_cursor(util::RecvBuffer& buf);

  const FaultPlan& plan() const { return plan_; }
  HostId num_hosts() const { return num_hosts_; }

 private:
  /// Fires the first unfired `kind` event scheduled for `round`.
  bool fire(FaultKind kind, std::size_t round, HostId* host);

  FaultPlan plan_;
  HostId num_hosts_;
  util::Xoshiro256 rng_;
  std::vector<double> slowdown_;
  std::vector<std::uint8_t> event_fired_;  ///< parallel to plan_.events
};

/// Checkpoint/restart hook implemented by the applications BspLoop runs
/// (MRBC's BatchRunner, SBBC's SourceRunner, matrix::DistBcEngine for
/// MFBC). The snapshot must capture everything a replayed round reads:
/// per-host labels, round-local worklists, and the substrate's flag +
/// delivery state (Substrate::save_state).
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_checkpoint(util::SendBuffer& buf) const = 0;
  virtual void restore_checkpoint(util::RecvBuffer& buf) = 0;

  /// Invoked by BspLoop after an ownership handoff (a declared permanent
  /// death changed the logical→physical map). Applications that own a
  /// Substrate install the new placement here
  /// (Substrate::set_placement(m.logical_to_physical())); the default
  /// no-op keeps fault-only applications source-compatible.
  virtual void on_membership_change(const Membership& membership) { (void)membership; }
};

}  // namespace mrbc::sim
