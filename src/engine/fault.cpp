#include "engine/fault.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

namespace mrbc::sim {

namespace {

// Decorrelates the message-level stream from the straggler assignment so
// changing straggler_rate does not reshuffle drop/corrupt decisions.
constexpr std::uint64_t kChannelStream = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kStragglerStream = 0x2545f4914f6cdd1dull;

// Bump when the serialized FaultPlan layout changes.
constexpr std::uint32_t kPlanVersion = 2;

}  // namespace

void FaultPlan::save(util::SendBuffer& buf) const {
  buf.write<std::uint32_t>(kPlanVersion);
  buf.write<std::uint64_t>(seed);
  buf.write<double>(drop_rate);
  buf.write<double>(duplicate_rate);
  buf.write<double>(corrupt_rate);
  buf.write<double>(straggler_rate);
  buf.write<double>(straggler_slowdown);
  buf.write<std::uint64_t>(events.size());
  for (const FaultEvent& e : events) {
    buf.write<std::uint8_t>(static_cast<std::uint8_t>(e.kind));
    buf.write<std::uint32_t>(e.round);
    buf.write<HostId>(e.host);
  }
}

void FaultPlan::restore(util::RecvBuffer& buf) {
  const auto version = buf.read<std::uint32_t>();
  if (version != kPlanVersion) {
    throw std::out_of_range("FaultPlan: unsupported serialized version " +
                            std::to_string(version));
  }
  seed = buf.read<std::uint64_t>();
  drop_rate = buf.read<double>();
  duplicate_rate = buf.read<double>();
  corrupt_rate = buf.read<double>();
  straggler_rate = buf.read<double>();
  straggler_slowdown = buf.read<double>();
  // No reserve: the count is untrusted until the events have been read.
  const auto n = buf.read<std::uint64_t>();
  events.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    FaultEvent e;
    const auto kind = buf.read<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(FaultKind::kHostDeath)) {
      throw std::out_of_range("FaultPlan: unknown fault kind " + std::to_string(kind));
    }
    e.kind = static_cast<FaultKind>(kind);
    e.round = buf.read<std::uint32_t>();
    e.host = buf.read<HostId>();
    events.push_back(e);
  }
}

FaultInjector::FaultInjector(const FaultPlan& plan, HostId num_hosts)
    : plan_(plan), num_hosts_(num_hosts), rng_(plan.seed ^ kChannelStream) {
  slowdown_.assign(std::max<HostId>(num_hosts, 1), 1.0);
  util::Xoshiro256 srng(plan.seed ^ kStragglerStream);
  for (auto& s : slowdown_) {
    if (plan_.straggler_rate > 0.0 && srng.next_bool(plan_.straggler_rate)) {
      s = std::max(1.0, plan_.straggler_slowdown);
    }
  }
  event_fired_.assign(plan_.events.size(), 0);
}

bool FaultInjector::drop(HostId, HostId, std::uint64_t) {
  return plan_.drop_rate > 0.0 && rng_.next_bool(plan_.drop_rate);
}

bool FaultInjector::duplicate(HostId, HostId, std::uint64_t) {
  return plan_.duplicate_rate > 0.0 && rng_.next_bool(plan_.duplicate_rate);
}

long FaultInjector::corrupt_bit(HostId, HostId, std::uint64_t, std::size_t payload_bytes) {
  if (payload_bytes == 0 || plan_.corrupt_rate <= 0.0 || !rng_.next_bool(plan_.corrupt_rate)) {
    return -1;
  }
  return static_cast<long>(rng_.next_bounded(payload_bytes * 8));
}

double FaultInjector::compute_slowdown(HostId h) const {
  return h < slowdown_.size() ? slowdown_[h] : 1.0;
}

bool FaultInjector::fire(FaultKind kind, std::size_t round, HostId* host) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (event_fired_[i] || e.kind != kind || e.round == 0 || round != e.round) continue;
    event_fired_[i] = 1;
    if (host) *host = num_hosts_ > 0 ? e.host % num_hosts_ : 0;
    return true;
  }
  return false;
}

void FaultInjector::rearm() {
  event_fired_.assign(plan_.events.size(), 0);
  rng_ = util::Xoshiro256(plan_.seed ^ kChannelStream);
}

void FaultInjector::save_cursor(util::SendBuffer& buf) const {
  const auto state = rng_.state();
  for (std::uint64_t word : state) buf.write<std::uint64_t>(word);
  buf.write_vector(event_fired_);
}

void FaultInjector::restore_cursor(util::RecvBuffer& buf) {
  std::array<std::uint64_t, 4> state;
  for (auto& word : state) word = buf.read<std::uint64_t>();
  std::vector<std::uint8_t> fired = buf.read_vector<std::uint8_t>();
  if (fired.size() != plan_.events.size()) {
    throw std::out_of_range("fault cursor tracks " + std::to_string(fired.size()) +
                            " events, the plan schedules " +
                            std::to_string(plan_.events.size()));
  }
  rng_.set_state(state);
  event_fired_ = std::move(fired);
}

}  // namespace mrbc::sim
