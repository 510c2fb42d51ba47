#pragma once
// BC-as-a-service: a long-running daemon serving centrality/analytics
// queries over localhost HTTP/1.1 + JSON while absorbing edge-update
// batches, with epoch-versioned snapshots so queries never block ingest
// and never observe torn state.
//
// Thread architecture (all owned by Server):
//   * accept thread — poll()s the listening socket, applies admission
//     control: a connection that does not fit in the bounded pending
//     queue is answered 429 inline and closed (heavy traffic degrades to
//     fast rejections, not unbounded memory);
//   * request loop — a dedicated util::ThreadPool whose one long-running
//     job is "each participant drains the connection queue until drain";
//     handlers pin an EpochStore snapshot per request and only read it;
//   * ingest thread — drains the bounded ingest queue, coalescing every
//     queued batch into one EdgeBatch (bursty writers amortize the
//     recompute), applies it through stream::IncrementalBc, recomputes
//     the optional analytics, and publishes a fresh epoch.
//
// Endpoints (all JSON; every result carries the epoch it was read from,
// duplicated in an X-Epoch header):
//   GET  /healthz            liveness + current epoch
//   GET  /epoch              epoch, publishes, |V|, |E|
//   GET  /bc?vertex=3        one vertex  (?vertices=1,2,3 for several,
//                            ?all=1 for the full vector)
//   GET  /topk?k=10&metric=bc|pagerank   deterministic ranking
//   GET  /pagerank?vertex=3  per-vertex rank
//   GET  /cc?vertex=3        component label (+ component count)
//   GET  /kcore?vertex=3     k-core membership at the configured k
//   GET  /stats              server counters + queue depths + the full
//                            obs::Metrics histogram export
//   POST /ingest             {"ops": [["+",u,v], ["-",u,v], ...]}
//                            202-queued by default; ?wait=1 blocks until
//                            the batch's epoch is published (tests/CI)
//
// Graceful drain (stop(), or SIGTERM via bc_tool --serve): stop accepting,
// finish queued requests, apply every acknowledged ingest batch, persist a
// durable IncrementalBc snapshot when checkpoint_dir is set, then join.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/epoch_store.h"
#include "serve/http.h"
#include "serve/telemetry.h"
#include "stream/incremental_bc.h"
#include "util/thread_pool.h"

namespace mrbc::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see Server::port).
  std::uint16_t port = 0;
  /// Request-loop parallelism (its own ThreadPool, distinct from the
  /// global compute pool the recompute kernels use).
  std::size_t request_threads = 4;
  /// Accepted-but-unhandled connections beyond this are answered 429.
  std::size_t max_pending_requests = 64;
  /// Queued ingest batches beyond this are answered 429.
  std::size_t max_pending_ingest = 256;
  /// Requests served per keep-alive connection before Connection: close.
  std::size_t max_keepalive_requests = 1024;
  HttpParser::Limits http_limits;
  /// Ops allowed in one /ingest batch (413 above).
  std::size_t max_batch_ops = 1u << 20;

  /// Recompute pagerank/cc/kcore per epoch (BC is always maintained).
  bool run_analytics = true;
  std::uint32_t kcore_k = 2;
  std::uint32_t pagerank_iterations = 20;

  /// When non-empty: restart from <dir>/serve.ckpt if present (unless
  /// fresh_start), persist on drain and every checkpoint_every batches.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 0;  ///< 0 = only on drain
  bool fresh_start = false;          ///< ignore an existing serve.ckpt

  /// Test hook: per-request handler delay (admission-control tests fill
  /// the pending queue deterministically). 0 in production.
  std::uint32_t debug_handler_delay_ms = 0;
  /// Test hook: delay before each coalesced apply (queue-age tests keep
  /// batches queued deterministically). 0 in production.
  std::uint32_t debug_apply_delay_ms = 0;

  /// Live telemetry plane: /metrics + /debug/slow exposition, windowed
  /// qps/latency, per-request ids and tracer spans. Off = every recording
  /// site is one relaxed load + branch (bench/micro_obs budget).
  bool telemetry = true;
  /// Requests at least this slow enter the bounded slow-request log
  /// (GET /debug/slow). kSlowRequestMsUnset = MRBC_SLOW_REQUEST_MS env
  /// override, else 250 ms.
  std::uint32_t slow_request_ms = kSlowRequestMsUnset;
  /// Bound on retained slow-log entries (oldest evicted).
  std::size_t slow_log_capacity = 256;

  /// Engine configuration for the maintained BC (samples, hosts, policy).
  stream::IncrementalBcOptions bc;
};

/// Monotonic counters exported by /stats. Relaxed atomics: exactness
/// across a racing read is not load-bearing, monotonicity is.
struct ServerCounters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> rejected_requests{0};  ///< 429 at the door
  std::atomic<std::uint64_t> rejected_ingest{0};    ///< 429 ingest queue full
  std::atomic<std::uint64_t> bad_requests{0};       ///< 4xx/5xx parse failures
  std::atomic<std::uint64_t> batches_ingested{0};   ///< accepted via POST
  std::atomic<std::uint64_t> ops_ingested{0};
  std::atomic<std::uint64_t> batches_applied{0};    ///< after coalescing
  std::atomic<std::uint64_t> ops_applied{0};        ///< ops that changed the graph
  std::atomic<std::uint64_t> sources_reexecuted{0};  ///< sampled sources re-run
  std::atomic<std::uint64_t> epochs_published{0};
  std::atomic<std::uint64_t> checkpoints_written{0};
};

class Server {
 public:
  /// Takes the base graph; runs the initial BC (and analytics) and
  /// publishes epoch 0 before start() returns control flow to callers —
  /// or restores the engine from <checkpoint_dir>/serve.ckpt when present.
  Server(graph::Graph base, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + spawns the accept/request/ingest machinery. Throws
  /// std::runtime_error when the port cannot be bound.
  void start();
  /// Graceful drain; idempotent. Safe to call from a signal-watcher
  /// thread, not from a handler.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (after start(); the ephemeral choice when options.port=0).
  std::uint16_t port() const { return port_; }

  const EpochStore& store() const { return store_; }
  const ServerCounters& counters() const { return counters_; }
  const Telemetry& telemetry() const { return telemetry_; }
  /// Epoch of the engine (== last published snapshot's epoch).
  std::uint64_t engine_epoch() const;
  /// Age of the oldest queued-but-unapplied ingest batch; 0 when empty.
  /// Depth alone hides a stuck apply thread — age does not.
  double ingest_oldest_age_seconds() const;

  static std::string checkpoint_path(const std::string& dir) { return dir + "/serve.ckpt"; }

 private:
  struct PendingBatch {
    stream::EdgeBatch batch;
    std::uint64_t ticket = 0;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void accept_loop();
  void request_worker();
  void ingest_loop();
  void handle_connection(int fd);
  /// Returns the serialized response for one parsed request.
  std::string dispatch(const HttpRequest& req, bool keep_alive);

  std::string handle_bc(const HttpRequest& req, const EpochSnapshot& snap, bool keep_alive);
  std::string handle_topk(const HttpRequest& req, const EpochSnapshot& snap, bool keep_alive);
  std::string handle_vertex_metric(const HttpRequest& req, const EpochSnapshot& snap,
                                   bool keep_alive, const std::string& metric);
  std::string handle_stats(const EpochSnapshot& snap, bool keep_alive);
  std::string handle_ingest(const HttpRequest& req, bool keep_alive);
  std::string handle_metrics(const EpochSnapshot& snap, bool keep_alive);
  std::string handle_debug_slow(bool keep_alive);
  std::string handle_debug_trace(const HttpRequest& req, bool keep_alive);
  std::string error_response(int status, const std::string& message, bool keep_alive);

  /// Builds + publishes a snapshot from the engine's current state.
  void publish_epoch(std::size_t coalesced, double recompute_seconds);
  void maybe_checkpoint(bool force);

  ServerOptions opts_;
  Telemetry telemetry_;
  std::unique_ptr<stream::IncrementalBc> engine_;  ///< ingest thread only (after init)
  EpochStore store_;
  ServerCounters counters_;
  std::chrono::steady_clock::time_point start_time_{};

  /// Atomic: stop() closes and resets it to -1 while accept_loop() is
  /// still polling it; the loop tolerates the stale/-1 fd (poll/accept
  /// fail benignly) and exits on the next draining_ check.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  // Pending connections (accept thread -> request workers).
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::deque<int> conn_queue_;
  bool conn_stop_ = false;           ///< guarded by conn_mu_
  std::vector<int> active_fds_;      ///< connections being handled; guarded by conn_mu_

  // Pending ingest batches (request workers -> ingest thread).
  mutable std::mutex ingest_mu_;
  std::condition_variable ingest_cv_;
  std::condition_variable applied_cv_;
  std::deque<PendingBatch> ingest_queue_;
  std::uint64_t next_ticket_ = 1;     ///< guarded by ingest_mu_
  std::uint64_t applied_ticket_ = 0;  ///< guarded by ingest_mu_
  bool ingest_stop_ = false;          ///< guarded by ingest_mu_
  std::size_t batches_since_checkpoint_ = 0;  ///< ingest thread only

  std::thread accept_thread_;
  std::thread ingest_thread_;
  std::thread dispatcher_thread_;  ///< runs the pool's request-loop job
  std::unique_ptr<util::ThreadPool> request_pool_;
};

}  // namespace mrbc::serve
