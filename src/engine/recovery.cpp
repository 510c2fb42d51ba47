#include "engine/recovery.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "partition/policies.h"

namespace mrbc::sim {

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
  std::vector<HostId> placement = buf.read_vector<HostId>();
  std::vector<std::uint8_t> alive = buf.read_vector<std::uint8_t>();
  const HostId n = num_logical();
  if (placement.size() != n || alive.size() != n) {
    throw std::out_of_range("membership over " + std::to_string(placement.size()) + " and " +
                            std::to_string(alive.size()) + " hosts, expected " +
                            std::to_string(n));
  }
  HostId num_alive = 0;
  for (std::uint8_t a : alive) num_alive += a ? 1 : 0;
  if (num_alive == 0) throw std::out_of_range("membership has no live host");
  for (HostId logical = 0; logical < n; ++logical) {
    const HostId p = placement[logical];
    if (p >= n || !alive[p]) {
      throw std::out_of_range("membership places shard " + std::to_string(logical) +
                              " on " + (p >= n ? "out-of-range" : "dead") + " host " +
                              std::to_string(p));
    }
  }
  logical_to_physical_ = std::move(placement);
  alive_ = std::move(alive);
  num_alive_ = num_alive;
}

}  // namespace mrbc::sim
