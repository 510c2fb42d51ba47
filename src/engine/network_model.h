#pragma once
// Analytical network cost model for the cluster simulator.
//
// The paper's testbed is Stampede2 (Intel Omni-Path, 100 Gbps). We do not
// have a cluster, so per-round network time is *modeled* while computation
// time is *measured*:
//
// Host pairs communicate in parallel, so the per-round cost is driven by
// the busiest host, not the total traffic:
//
//   round_network_time = kappa                          (BSP barrier)
//                      + alpha * max_host_messages      (per-peer latency)
//                      + max_host_egress_bytes / beta   (bandwidth term)
//
// The paper's qualitative conclusions (communication dominates at scale;
// fewer rounds => less communication time) hold for any realistic
// (alpha, beta, kappa); defaults approximate an Omni-Path-class fabric.
//
// Under fault injection two further modeled terms appear:
//   retransmit_seconds — reliable-delivery recovery traffic: each
//     retransmission waits out an exponentially backed-off timeout (RTO
//     units accumulated by the substrate) and re-sends its bytes;
//   checkpoint_seconds — writing a coordinated snapshot to stable storage
//     at the checkpoint bandwidth;
//   heartbeat_deadline_seconds — how long survivors wait for one missed
//     heartbeat before counting it, charged per round a host death stalls.
// None is charged on a fault-free run.
//
// Robustness: every term is clamped to be non-negative and finite — a
// zero-host round charges exactly one kappa_barrier and degenerate
// constants (beta = 0, negative kappa) can never produce NaN or negative
// time.

#include <cstddef>

namespace mrbc::sim {

struct NetworkModel {
  double alpha_per_message = 2e-6;   ///< seconds per aggregated message
  double beta_bytes_per_sec = 10e9;  ///< ~100 Gbps
  double kappa_barrier = 20e-6;      ///< per-round barrier/synchronization cost
  double rto_seconds = 100e-6;       ///< base retransmission timeout (doubles per retry)
  double checkpoint_bytes_per_sec = 2e9;  ///< stable-storage write bandwidth

  /// Modeled network seconds for one communication phase; both arguments
  /// are per-host maxima.
  double phase_seconds(std::size_t max_host_messages, std::size_t max_host_egress_bytes) const;

  /// Modeled cost of one full BSP round's communication (includes barrier).
  /// The barrier is charged exactly once, even for a round that moved
  /// nothing (max_host_messages == max_host_egress_bytes == 0).
  double round_seconds(std::size_t max_host_messages, std::size_t max_host_egress_bytes) const;

  /// Modeled cost of reliable-delivery recovery traffic: `backoff_steps`
  /// accumulated RTO units (2^(attempt-2) per retransmission, summed by
  /// the substrate) plus the retransmitted bytes at fabric bandwidth.
  double retransmit_seconds(std::size_t backoff_steps, std::size_t retransmit_bytes) const;

  /// Modeled cost of writing `checkpoint_bytes` to stable storage.
  double checkpoint_seconds(std::size_t checkpoint_bytes) const;

  /// Modeled wait for one missed heartbeat: 8 barrier latencies, headroom
  /// that ordinary round jitter never trips, and never under 100 µs.
  double heartbeat_deadline_seconds() const;
};

}  // namespace mrbc::sim
