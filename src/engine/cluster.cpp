#include "engine/cluster.h"

namespace mrbc::sim {

FaultCounters& FaultCounters::operator+=(const FaultCounters& other) {
  drops += other.drops;
  duplicates += other.duplicates;
  duplicates_suppressed += other.duplicates_suppressed;
  corruptions_detected += other.corruptions_detected;
  retransmits += other.retransmits;
  retransmit_bytes += other.retransmit_bytes;
  forced_deliveries += other.forced_deliveries;
  checkpoints += other.checkpoints;
  checkpoint_bytes += other.checkpoint_bytes;
  crashes += other.crashes;
  recovery_rounds += other.recovery_rounds;
  deaths += other.deaths;
  handoffs += other.handoffs;
  handoff_bytes += other.handoff_bytes;
  detection_rounds += other.detection_rounds;
  retransmit_seconds += other.retransmit_seconds;
  checkpoint_seconds += other.checkpoint_seconds;
  detection_seconds += other.detection_seconds;
  handoff_seconds += other.handoff_seconds;
  return *this;
}

PhaseBreakdown& PhaseBreakdown::operator+=(const PhaseBreakdown& other) {
  comm_seconds += other.comm_seconds;
  compute_seconds += other.compute_seconds;
  checkpoint_seconds += other.checkpoint_seconds;
  recovery_seconds += other.recovery_seconds;
  return *this;
}

RunStats& RunStats::operator+=(const RunStats& other) {
  rounds += other.rounds;
  compute_seconds += other.compute_seconds;
  network_seconds += other.network_seconds;
  messages += other.messages;
  bytes += other.bytes;
  raw_bytes += other.raw_bytes;
  values += other.values;
  imbalance_sum += other.imbalance_sum;
  if (per_host_compute_seconds.size() < other.per_host_compute_seconds.size()) {
    per_host_compute_seconds.resize(other.per_host_compute_seconds.size(), 0.0);
  }
  for (std::size_t h = 0; h < other.per_host_compute_seconds.size(); ++h) {
    per_host_compute_seconds[h] += other.per_host_compute_seconds[h];
  }
  round_log.insert(round_log.end(), other.round_log.begin(), other.round_log.end());
  faults += other.faults;
  phases += other.phases;
  return *this;
}

void RunStats::add_comm(const SyncStats& comm, double sync_seconds, double retransmit_seconds) {
  network_seconds += sync_seconds;
  network_seconds += retransmit_seconds;
  phases.comm_seconds += sync_seconds;
  phases.recovery_seconds += retransmit_seconds;
  messages += comm.messages;
  bytes += comm.bytes;
  raw_bytes += comm.raw_bytes;
  values += comm.values;
  faults.drops += comm.drops;
  faults.duplicates += comm.duplicates;
  faults.duplicates_suppressed += comm.duplicates_suppressed;
  faults.corruptions_detected += comm.corruptions_detected;
  faults.retransmits += comm.retransmits;
  faults.retransmit_bytes += comm.retransmit_bytes;
  faults.forced_deliveries += comm.forced_deliveries;
  faults.retransmit_seconds += retransmit_seconds;
}

}  // namespace mrbc::sim
