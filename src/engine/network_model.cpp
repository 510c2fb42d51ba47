#include "engine/network_model.h"

#include <algorithm>
#include <cmath>

namespace mrbc::sim {

namespace {

/// Clamps one additive cost term: non-finite (0/0 with degenerate
/// constants) and negative contributions become 0 rather than poisoning
/// the whole run's accounting.
double sanitize(double seconds) {
  return std::isfinite(seconds) && seconds > 0.0 ? seconds : 0.0;
}

/// bytes / bandwidth, guarded against zero/negative/NaN bandwidth.
double transfer_seconds(std::size_t bytes, double bytes_per_sec) {
  if (bytes == 0 || !(bytes_per_sec > 0.0)) return 0.0;
  return sanitize(static_cast<double>(bytes) / bytes_per_sec);
}

}  // namespace

double NetworkModel::phase_seconds(std::size_t max_host_messages,
                                   std::size_t max_host_egress_bytes) const {
  return sanitize(alpha_per_message * static_cast<double>(max_host_messages)) +
         transfer_seconds(max_host_egress_bytes, beta_bytes_per_sec);
}

double NetworkModel::round_seconds(std::size_t max_host_messages,
                                   std::size_t max_host_egress_bytes) const {
  // The barrier is paid exactly once per round, including empty rounds.
  return sanitize(kappa_barrier) + phase_seconds(max_host_messages, max_host_egress_bytes);
}

double NetworkModel::retransmit_seconds(std::size_t backoff_steps,
                                        std::size_t retransmit_bytes) const {
  return sanitize(rto_seconds * static_cast<double>(backoff_steps)) +
         transfer_seconds(retransmit_bytes, beta_bytes_per_sec);
}

double NetworkModel::checkpoint_seconds(std::size_t checkpoint_bytes) const {
  return transfer_seconds(checkpoint_bytes, checkpoint_bytes_per_sec);
}

double NetworkModel::heartbeat_deadline_seconds() const {
  return std::max(1e-4, 8.0 * sanitize(kappa_barrier));
}

}  // namespace mrbc::sim
