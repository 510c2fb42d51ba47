#include "comm/substrate.h"

#include <stdexcept>
#include <string>

namespace mrbc::comm {

SyncStats& SyncStats::operator+=(const SyncStats& other) {
  messages += other.messages;
  bytes += other.bytes;
  raw_bytes += other.raw_bytes;
  values += other.values;
  if (bytes_per_host.size() < other.bytes_per_host.size()) {
    bytes_per_host.resize(other.bytes_per_host.size(), 0);
  }
  for (std::size_t h = 0; h < other.bytes_per_host.size(); ++h) {
    bytes_per_host[h] += other.bytes_per_host[h];
  }
  if (msgs_per_host.size() < other.msgs_per_host.size()) {
    msgs_per_host.resize(other.msgs_per_host.size(), 0);
  }
  for (std::size_t h = 0; h < other.msgs_per_host.size(); ++h) {
    msgs_per_host[h] += other.msgs_per_host[h];
  }
  local_messages += other.local_messages;
  local_bytes += other.local_bytes;
  drops += other.drops;
  duplicates += other.duplicates;
  duplicates_suppressed += other.duplicates_suppressed;
  corruptions_detected += other.corruptions_detected;
  retransmits += other.retransmits;
  retransmit_bytes += other.retransmit_bytes;
  backoff_steps += other.backoff_steps;
  forced_deliveries += other.forced_deliveries;
  return *this;
}

Substrate::Substrate(const Partition& part) : Substrate(part.num_hosts()) {
  part_ = &part;
  presence_.resize(pair_bufs_.size());
  presence_count_.assign(pair_bufs_.size(), 0);
  for (HostId h = 0; h < H_; ++h) {
    reduce_flags_[h].resize(part.host(h).num_proxies());
    broadcast_flags_[h].resize(part.host(h).num_proxies());
    for (HostId oh = 0; oh < H_; ++oh) {
      presence_[pair_index(h, oh)].resize(part.mirror_lids(h, oh).size());
    }
  }
}

Substrate::Substrate(HostId num_hosts) : part_(nullptr), H_(num_hosts) {
  reduce_flags_.resize(H_);
  broadcast_flags_.resize(H_);
  pair_bufs_.resize(static_cast<std::size_t>(H_) * H_);
  set_delivery(DeliveryOptions{});
}

void Substrate::set_delivery(const DeliveryOptions& options) {
  delivery_ = options;
  next_seq_.assign(static_cast<std::size_t>(H_) * H_, 0);
  last_accepted_.assign(static_cast<std::size_t>(H_) * H_, 0);
}

void Substrate::set_placement(std::vector<HostId> logical_to_physical) {
  placement_ = std::move(logical_to_physical);
  bool identity = true;
  for (std::size_t h = 0; h < placement_.size(); ++h) {
    identity = identity && placement_[h] == static_cast<HostId>(h);
  }
  if (identity) placement_.clear();  // keep the healthy fast path branch-cheap
}

void Substrate::save_state(util::SendBuffer& buf) const {
  for (HostId h = 0; h < H_; ++h) {
    buf.write_bitset(reduce_flags_[h]);
    buf.write_bitset(broadcast_flags_[h]);
  }
  buf.write_vector(next_seq_);
  buf.write_vector(last_accepted_);
}

void Substrate::restore_state(util::RecvBuffer& buf) {
  // The exchange lists index the flag sets and deliver() indexes the H^2
  // sequence tables, so state of another partition or host count is refused.
  const auto restore = [](auto& dst, auto&& src) {
    if (src.size() != dst.size()) {
      throw std::out_of_range("substrate: restored state of size " + std::to_string(src.size()) +
                              ", expected " + std::to_string(dst.size()));
    }
    dst = std::move(src);
  };
  for (HostId h = 0; h < H_; ++h) {
    restore(reduce_flags_[h], buf.read_bitset());
    restore(broadcast_flags_[h], buf.read_bitset());
  }
  restore(next_seq_, buf.read_vector<std::uint64_t>());
  restore(last_accepted_, buf.read_vector<std::uint64_t>());
}

bool Substrate::any_pending() const {
  for (HostId h = 0; h < H_; ++h) {
    if (reduce_flags_[h].any() || broadcast_flags_[h].any()) return true;
  }
  return false;
}

void Substrate::clear_flags() {
  for (HostId h = 0; h < H_; ++h) {
    reduce_flags_[h].reset_all();
    broadcast_flags_[h].reset_all();
  }
}

}  // namespace mrbc::comm
