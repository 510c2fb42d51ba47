#include "engine/recovery.h"

#include <algorithm>
#include <cmath>

#include "partition/policies.h"

namespace mrbc::sim {

// ---- FailureDetector --------------------------------------------------------

FailureDetector::FailureDetector(HostId num_hosts, const NetworkModel& network)
    : network_(network) {
  late_.assign(num_hosts, 0);
  misses_.assign(num_hosts, 0);
  dead_.assign(num_hosts, 0);
}

double FailureDetector::deadline_seconds() const {
  const double baseline =
      std::max(ewma_primed_ ? ewma_seconds_ : network_.kappa_barrier, network_.kappa_barrier);
  return std::max(kMinDeadlineSeconds, kDeadlineMultiplier * baseline);
}

double FailureDetector::deadline_seconds(HostId h) const {
  // Suspects get exponentially more grace per consecutive late heartbeat
  // (capped so the wait stays bounded) — the straggler backoff.
  const double steps = static_cast<double>(std::min<std::size_t>(late_[h], 16));
  return deadline_seconds() * std::pow(kBackoffGrowth, steps);
}

void FailureDetector::observe(HostId h, double seconds) {
  if (dead_[h]) return;
  misses_[h] = 0;  // a heartbeat, however late, proves the host is up
  if (seconds > deadline_seconds(h)) {
    ++late_[h];
    ++suspect_observations_;
  } else {
    if (late_[h] > 0) --late_[h];
    // On-time heartbeats feed the baseline; late ones are excluded so one
    // straggler cannot inflate everyone's deadline.
    round_max_seconds_ = std::max(round_max_seconds_, seconds);
    round_has_observation_ = true;
  }
}

void FailureDetector::observe_missing(HostId h) {
  if (dead_[h]) return;
  ++misses_[h];
  if (misses_[h] >= kDeadAfter) dead_[h] = 1;
}

void FailureDetector::finish_round() {
  if (round_has_observation_) {
    ewma_seconds_ = ewma_primed_
                        ? kEwmaAlpha * round_max_seconds_ + (1.0 - kEwmaAlpha) * ewma_seconds_
                        : round_max_seconds_;
    ewma_primed_ = true;
  }
  round_max_seconds_ = 0.0;
  round_has_observation_ = false;
}

HostStatus FailureDetector::status(HostId h) const {
  if (dead_[h]) return HostStatus::kDead;
  if (late_[h] >= kSuspectAfter || misses_[h] > 0) return HostStatus::kSuspect;
  return HostStatus::kAlive;
}

// ---- Membership -------------------------------------------------------------

Membership::Membership(HostId num_hosts) {
  logical_to_physical_.resize(std::max<HostId>(num_hosts, 1));
  reset();
}

void Membership::reset() {
  const HostId n = num_logical();
  for (HostId h = 0; h < n; ++h) logical_to_physical_[h] = h;
  alive_.assign(n, 1);
  num_alive_ = n;
}

std::vector<HostId> Membership::alive_hosts() const {
  std::vector<HostId> alive;
  alive.reserve(num_alive_);
  for (HostId h = 0; h < num_logical(); ++h) {
    if (alive_[h]) alive.push_back(h);
  }
  return alive;
}

HostId Membership::resolve_alive(HostId physical) const {
  const HostId p = physical % num_logical();
  // A dead host's own logical shard always points at a live adopter.
  return alive_[p] ? p : logical_to_physical_[p];
}

std::vector<HostId> Membership::declare_dead(HostId physical) {
  std::vector<HostId> moved;
  if (physical >= num_logical() || !alive_[physical] || num_alive_ <= 1) return moved;
  alive_[physical] = 0;
  --num_alive_;
  const std::vector<HostId> survivors = alive_hosts();
  for (HostId logical = 0; logical < num_logical(); ++logical) {
    if (logical_to_physical_[logical] != physical) continue;
    logical_to_physical_[logical] = partition::handoff_owner(logical, survivors);
    moved.push_back(logical);
  }
  return moved;
}

void Membership::save(util::SendBuffer& buf) const {
  buf.write_vector(logical_to_physical_);
  buf.write_vector(alive_);
}

void Membership::restore(util::RecvBuffer& buf) {
  logical_to_physical_ = buf.read_vector<HostId>();
  alive_ = buf.read_vector<std::uint8_t>();
  num_alive_ = 0;
  for (std::uint8_t a : alive_) num_alive_ += a ? 1 : 0;
}

}  // namespace mrbc::sim
