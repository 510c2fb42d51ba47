#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "analytics/connected_components.h"
#include "analytics/kcore.h"
#include "analytics/pagerank.h"
#include "analytics/topk.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/log.h"

namespace mrbc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

/// Status code of an already-serialized response ("HTTP/1.1 200 ...").
int response_status(const std::string& resp) {
  if (resp.size() < 12) return 0;
  int status = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    const char c = resp[i];
    if (c < '0' || c > '9') return 0;
    status = status * 10 + (c - '0');
  }
  return status;
}

/// Splices a header line into a serialized response, after the status line.
void insert_header(std::string& resp, const char* name, const std::string& value) {
  const std::size_t eol = resp.find("\r\n");
  if (eol == std::string::npos) return;
  std::string line = name;
  line += ": ";
  line += value;
  line += "\r\n";
  resp.insert(eol + 2, line);
}

/// Resident set size from /proc/self/statm; 0 when unreadable.
double resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total_pages = 0;
  long rss_pages = 0;
  const int got = std::fscanf(f, "%ld %ld", &total_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(rss_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

/// Comma-separated vertex-id list ("1,5,9"); false on any malformed entry.
bool parse_vertex_list(const std::string& s, std::vector<std::uint64_t>& out) {
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::uint64_t v = 0;
    if (!parse_u64(item, v)) return false;
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

}  // namespace

// ---- Construction / engine bring-up ----------------------------------------

Server::Server(graph::Graph base, ServerOptions options)
    : opts_(std::move(options)),
      telemetry_(opts_.telemetry, resolve_slow_request_ms(opts_.slow_request_ms, 250),
                 opts_.slow_log_capacity) {
  const Clock::time_point t0 = Clock::now();
  const std::string ckpt =
      opts_.checkpoint_dir.empty() ? std::string{} : checkpoint_path(opts_.checkpoint_dir);
  if (!opts_.checkpoint_dir.empty()) std::filesystem::create_directories(opts_.checkpoint_dir);
  if (!ckpt.empty() && !opts_.fresh_start && std::filesystem::exists(ckpt)) {
    engine_ = std::make_unique<stream::IncrementalBc>(stream::IncrementalBc::load(ckpt, opts_.bc));
    MRBC_LOG_INFO << "serve: restored engine from " << ckpt << " (epoch " << engine_->epoch()
                  << ")";
  } else {
    engine_ = std::make_unique<stream::IncrementalBc>(std::move(base), opts_.bc);
  }
  publish_epoch(/*coalesced=*/0, seconds_since(t0));
}

Server::~Server() {
  stop();
}

std::uint64_t Server::engine_epoch() const {
  const EpochStore::Ptr snap = store_.current();
  return snap ? snap->epoch : 0;
}

double Server::ingest_oldest_age_seconds() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (ingest_queue_.empty()) return 0;
  return seconds_since(ingest_queue_.front().enqueued);
}

void Server::publish_epoch(std::size_t coalesced, double recompute_seconds) {
  obs::Span span(obs::Category::kServe, "serve/publish");
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch = engine_->epoch();
  snap->num_vertices = engine_->graph().num_vertices();
  snap->num_edges = engine_->graph().num_edges();
  snap->bc = engine_->scaled_scores();
  snap->coalesced_batches = coalesced;
  if (opts_.run_analytics && snap->num_vertices > 0) {
    // The engine's partition of the serving graph, shared by all three.
    const partition::Partition& part = engine_->partition();
    analytics::PagerankOptions pr;
    pr.max_iterations = opts_.pagerank_iterations;
    snap->pagerank = analytics::pagerank(part, pr).rank;
    snap->component = analytics::connected_components(part).component;
    // Min-label CC: a component's label is its smallest member, so the
    // component count is the number of self-labeled vertices.
    for (graph::VertexId v = 0; v < snap->num_vertices; ++v) {
      if (snap->component[v] == v) ++snap->num_components;
    }
    snap->kcore_k = opts_.kcore_k;
    const auto kc = analytics::kcore(part, opts_.kcore_k);
    snap->in_kcore.resize(snap->num_vertices);
    for (graph::VertexId v = 0; v < snap->num_vertices; ++v) {
      snap->in_kcore[v] = kc.in_core[v] ? 1 : 0;
    }
  }
  snap->recompute_seconds = recompute_seconds;
  store_.publish(std::move(snap));
  counters_.epochs_published.fetch_add(1, std::memory_order_relaxed);
  telemetry_.on_epoch_published();
}

void Server::maybe_checkpoint(bool force) {
  if (opts_.checkpoint_dir.empty()) return;
  if (!force &&
      (opts_.checkpoint_every == 0 || batches_since_checkpoint_ < opts_.checkpoint_every)) {
    return;
  }
  engine_->save(checkpoint_path(opts_.checkpoint_dir));
  batches_since_checkpoint_ = 0;
  counters_.checkpoints_written.fetch_add(1, std::memory_order_relaxed);
}

// ---- Lifecycle --------------------------------------------------------------

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" + std::to_string(opts_.port) +
                             ": " + err);
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  // /stats exports histograms, so the metrics layer comes up with the
  // daemon (recording sites everywhere else in the tree light up too).
  obs::Metrics::global().enable();
  start_time_ = Clock::now();

  draining_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_stop_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_stop_ = false;
  }
  running_.store(true, std::memory_order_release);

  accept_thread_ = std::thread([this] { accept_loop(); });
  ingest_thread_ = std::thread([this] { ingest_loop(); });
  const std::size_t threads = std::max<std::size_t>(opts_.request_threads, 1);
  request_pool_ = std::make_unique<util::ThreadPool>(threads);
  dispatcher_thread_ = std::thread([this, threads] {
    // One long-running pool job: every participant is a request worker
    // draining the shared connection queue until drain.
    request_pool_->parallel_for_chunks(0, threads, 1,
                                       [this](std::size_t, std::size_t, std::size_t) {
                                         request_worker();
                                       });
  });
  MRBC_LOG_INFO << "serve: listening on 127.0.0.1:" << port_ << " (" << threads
                << " request threads)";
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting (the accept loop notices draining_ within its poll
  //    timeout and exits; the closed fd makes pending accepts fail fast).
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Let the request workers finish everything already admitted, then
  //    release them.
  while (true) {
    std::unique_lock<std::mutex> lock(conn_mu_);
    if (conn_queue_.empty()) break;
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_stop_ = true;
    // Kick idle keep-alive connections out of recv() — their workers see
    // EOF, close, and exit without waiting for the socket timeout. A
    // response mid-send still goes out (only the read side is shut).
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  conn_cv_.notify_all();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  request_pool_.reset();

  // 3. Drain the ingest queue: every acknowledged batch is applied and
  //    published before the process exits.
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_stop_ = true;
  }
  ingest_cv_.notify_all();
  if (ingest_thread_.joinable()) ingest_thread_.join();

  // 4. Durable goodbye at a guaranteed batch boundary.
  maybe_checkpoint(/*force=*/true);
  MRBC_LOG_INFO << "serve: drained (" << counters_.requests_served.load(std::memory_order_relaxed)
                << " requests, " << counters_.epochs_published.load(std::memory_order_relaxed)
                << " epochs)";
}

// ---- Accept / admission control ---------------------------------------------

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (conn_queue_.size() < opts_.max_pending_requests) {
        conn_queue_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      conn_cv_.notify_one();
    } else {
      // Admission control: reject at the door instead of queueing without
      // bound. The 429 is written inline (cheap — the response is tiny).
      counters_.rejected_requests.fetch_add(1, std::memory_order_relaxed);
      telemetry_.windowed().add_counter(kWinRejected);
      send_all(fd, http_response(429, "application/json",
                                 "{\"error\":\"too many pending requests\"}", false,
                                 {{"Retry-After", "1"}}));
      ::close(fd);
    }
  }
}

// ---- Request loop -----------------------------------------------------------

void Server::request_worker() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [this] { return !conn_queue_.empty() || conn_stop_; });
      if (conn_queue_.empty()) return;  // conn_stop_
      fd = conn_queue_.front();
      conn_queue_.pop_front();
      active_fds_.push_back(fd);  // stop() can shut idle keep-alives down
    }
    try {
      handle_connection(fd);
    } catch (const std::exception& e) {
      MRBC_LOG_WARN << "serve: connection handler error: " << e.what();
      ::close(fd);
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      active_fds_.erase(std::find(active_fds_.begin(), active_fds_.end(), fd));
    }
  }
}

void Server::handle_connection(int fd) {
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  HttpParser parser(opts_.http_limits);
  std::string carry;  ///< bytes past the current message (pipelining)
  char buf[4096];
  std::size_t served_here = 0;
  while (true) {
    if (!carry.empty() && !parser.complete() && !parser.error()) {
      const std::size_t used = parser.consume(carry);
      carry.erase(0, used);
    }
    if (!parser.complete() && !parser.error()) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;  // peer closed, or idle past the socket timeout
      telemetry_.on_bytes_in(static_cast<std::size_t>(n));
      const std::size_t used = parser.consume(buf, static_cast<std::size_t>(n));
      carry.append(buf + used, static_cast<std::size_t>(n) - used);
      continue;
    }
    if (parser.error()) {
      counters_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, error_response(parser.error_status(), parser.error_reason(), false));
      break;
    }

    HttpRequest req = parser.take_request();
    ++served_here;
    const bool keep = req.keep_alive() && served_here < opts_.max_keepalive_requests &&
                      !draining_.load(std::memory_order_acquire);
    const Route route = route_of(req.path);
    const bool telemetry = telemetry_.enabled();
    const std::uint64_t request_id = telemetry ? telemetry_.next_request_id() : 0;
    const Clock::time_point t0 = Clock::now();
    // The simulated slow handler counts as handler time: slow-log and
    // latency-telemetry tests rely on it crossing the threshold.
    if (opts_.debug_handler_delay_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opts_.debug_handler_delay_ms));
    }
    std::string resp;
    {
      obs::Span span(obs::Category::kServe, route_span_name(route));
      try {
        resp = dispatch(req, keep);
      } catch (const util::JsonError& e) {
        counters_.bad_requests.fetch_add(1, std::memory_order_relaxed);
        resp = error_response(400, e.what(), keep);
      } catch (const std::exception& e) {
        resp = error_response(500, e.what(), false);
      }
    }
    const double request_us = seconds_since(t0) * 1e6;
    if (obs::metrics_enabled()) {
      obs::Metrics::global()
          .histogram(obs::Hist::kServeRequestMicros)
          .record(static_cast<std::uint64_t>(request_us));
    }
    if (telemetry) {
      insert_header(resp, "X-Request-Id", std::to_string(request_id));
      // Server-side handler time, echoed so clients can separate server
      // cost from transit — and so bench/serve_load can reconcile the
      // windowed latency histogram against exact per-request truth.
      insert_header(resp, "X-Request-Us",
                    std::to_string(static_cast<std::uint64_t>(request_us < 0 ? 0 : request_us)));
      telemetry_.on_request(route, response_status(resp), request_us, req.method, req.target,
                            request_id);
      telemetry_.on_bytes_out(resp.size());
    }
    if (!send_all(fd, resp)) break;
    counters_.requests_served.fetch_add(1, std::memory_order_relaxed);
    if (!keep) break;
    parser.reset();
  }
  ::close(fd);
}

// ---- Routing ----------------------------------------------------------------

std::string Server::error_response(int status, const std::string& message, bool keep_alive) {
  util::JsonWriter w;
  w.begin_object().key("error").value(message).key("status").value(std::int64_t{status});
  w.end_object();
  return http_response(status, "application/json", w.str(), keep_alive);
}

std::string Server::dispatch(const HttpRequest& req, bool keep_alive) {
  if (req.path == "/ingest") {
    if (req.method != "POST") return error_response(405, "POST /ingest", keep_alive);
    return handle_ingest(req, keep_alive);
  }
  if (req.method != "GET" && req.method != "HEAD") {
    return error_response(405, "method not allowed", keep_alive);
  }
  const EpochStore::Ptr snap = store_.current();  // pinned for this request

  if (req.path == "/healthz") {
    util::JsonWriter w;
    w.begin_object().key("status").value("ok").key("epoch").value(snap->epoch).end_object();
    return http_response(200, "application/json", w.str(), keep_alive);
  }
  if (req.path == "/epoch") {
    util::JsonWriter w;
    w.begin_object()
        .key("epoch").value(snap->epoch)
        .key("publishes").value(snap->publish_seq)
        .key("vertices").value(std::uint64_t{snap->num_vertices})
        .key("edges").value(std::uint64_t{snap->num_edges})
        .end_object();
    return http_response(200, "application/json", w.str(), keep_alive,
                         {{"X-Epoch", std::to_string(snap->epoch)}});
  }
  if (req.path == "/bc") return handle_bc(req, *snap, keep_alive);
  if (req.path == "/topk") return handle_topk(req, *snap, keep_alive);
  if (req.path == "/pagerank" || req.path == "/cc" || req.path == "/kcore") {
    return handle_vertex_metric(req, *snap, keep_alive, req.path.substr(1));
  }
  if (req.path == "/stats") return handle_stats(*snap, keep_alive);
  if (req.path == "/metrics") {
    if (!telemetry_.enabled()) return error_response(404, "telemetry disabled", keep_alive);
    return handle_metrics(*snap, keep_alive);
  }
  if (req.path == "/debug/slow") {
    if (!telemetry_.enabled()) return error_response(404, "telemetry disabled", keep_alive);
    return handle_debug_slow(keep_alive);
  }
  if (req.path == "/debug/trace") return handle_debug_trace(req, keep_alive);
  return error_response(404, "no such endpoint: " + req.path, keep_alive);
}

std::string Server::handle_bc(const HttpRequest& req, const EpochSnapshot& snap,
                              bool keep_alive) {
  util::JsonWriter w;
  const std::vector<std::pair<std::string, std::string>> epoch_hdr = {
      {"X-Epoch", std::to_string(snap.epoch)}};
  if (req.query_param("all") == "1") {
    w.begin_object().key("epoch").value(snap.epoch).key("n").value(
        std::uint64_t{snap.num_vertices});
    w.key("bc").begin_array();
    for (double b : snap.bc) w.value(b);
    w.end_array().end_object();
    return http_response(200, "application/json", w.str(), keep_alive, epoch_hdr);
  }
  const std::string multi = req.query_param("vertices");
  if (!multi.empty()) {
    std::vector<std::uint64_t> ids;
    if (!parse_vertex_list(multi, ids)) {
      return error_response(400, "malformed vertices list", keep_alive);
    }
    for (std::uint64_t v : ids) {
      if (v >= snap.bc.size()) {
        return error_response(404, "vertex " + std::to_string(v) + " out of range", keep_alive);
      }
    }
    w.begin_object().key("epoch").value(snap.epoch).key("vertices").begin_array();
    for (std::uint64_t v : ids) w.value(v);
    w.end_array().key("bc").begin_array();
    for (std::uint64_t v : ids) w.value(snap.bc[v]);
    w.end_array().end_object();
    return http_response(200, "application/json", w.str(), keep_alive, epoch_hdr);
  }
  std::uint64_t v = 0;
  if (!parse_u64(req.query_param("vertex"), v)) {
    return error_response(400, "vertex=<id>, vertices=<id,id,...> or all=1 required", keep_alive);
  }
  if (v >= snap.bc.size()) {
    return error_response(404, "vertex " + std::to_string(v) + " out of range", keep_alive);
  }
  w.begin_object()
      .key("epoch").value(snap.epoch)
      .key("vertex").value(v)
      .key("bc").value(snap.bc[v])
      .end_object();
  return http_response(200, "application/json", w.str(), keep_alive, epoch_hdr);
}

std::string Server::handle_topk(const HttpRequest& req, const EpochSnapshot& snap,
                                bool keep_alive) {
  std::uint64_t k = 10;
  const std::string k_param = req.query_param("k");
  if (!k_param.empty() && !parse_u64(k_param, k)) {
    return error_response(400, "malformed k", keep_alive);
  }
  const std::string metric = req.query_param("metric", "bc");
  const std::vector<double>* scores = nullptr;
  if (metric == "bc") {
    scores = &snap.bc;
  } else if (metric == "pagerank") {
    if (snap.pagerank.empty()) return error_response(404, "analytics disabled", keep_alive);
    scores = &snap.pagerank;
  } else {
    return error_response(400, "metric must be bc or pagerank", keep_alive);
  }
  const auto ranked = analytics::top_k(*scores, static_cast<std::size_t>(k));
  util::JsonWriter w;
  w.begin_object()
      .key("epoch").value(snap.epoch)
      .key("metric").value(metric)
      .key("k").value(std::uint64_t{ranked.size()})
      .key("results").begin_array();
  for (const auto& r : ranked) {
    w.begin_object().key("vertex").value(std::uint64_t{r.vertex}).key("score").value(r.score);
    w.end_object();
  }
  w.end_array().end_object();
  return http_response(200, "application/json", w.str(), keep_alive,
                       {{"X-Epoch", std::to_string(snap.epoch)}});
}

std::string Server::handle_vertex_metric(const HttpRequest& req, const EpochSnapshot& snap,
                                         bool keep_alive, const std::string& metric) {
  std::uint64_t v = 0;
  if (!parse_u64(req.query_param("vertex"), v)) {
    return error_response(400, "vertex=<id> required", keep_alive);
  }
  if (v >= snap.num_vertices) {
    return error_response(404, "vertex " + std::to_string(v) + " out of range", keep_alive);
  }
  const bool have = metric == "pagerank" ? !snap.pagerank.empty()
                    : metric == "cc"     ? !snap.component.empty()
                                         : !snap.in_kcore.empty();
  if (!have) return error_response(404, "analytics disabled", keep_alive);
  util::JsonWriter w;
  w.begin_object().key("epoch").value(snap.epoch).key("vertex").value(v);
  if (metric == "pagerank") {
    w.key("pagerank").value(snap.pagerank[v]);
  } else if (metric == "cc") {
    w.key("component").value(std::uint64_t{snap.component[v]});
    w.key("num_components").value(std::uint64_t{snap.num_components});
  } else {
    w.key("k").value(std::uint64_t{snap.kcore_k});
    w.key("in_kcore").value(snap.in_kcore[v] != 0);
  }
  w.end_object();
  return http_response(200, "application/json", w.str(), keep_alive,
                       {{"X-Epoch", std::to_string(snap.epoch)}});
}

std::string Server::handle_stats(const EpochSnapshot& snap, bool keep_alive) {
  std::size_t pending_requests = 0;
  std::size_t pending_ingest = 0;
  double ingest_oldest_age = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    pending_requests = conn_queue_.size();
  }
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    pending_ingest = ingest_queue_.size();
    if (!ingest_queue_.empty()) {
      ingest_oldest_age = seconds_since(ingest_queue_.front().enqueued);
    }
  }
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  util::JsonWriter w;
  w.begin_object()
      .key("epoch").value(snap.epoch)
      .key("publishes").value(snap.publish_seq)
      .key("vertices").value(std::uint64_t{snap.num_vertices})
      .key("edges").value(std::uint64_t{snap.num_edges})
      .key("recompute_seconds").value(snap.recompute_seconds)
      .key("coalesced_batches").value(std::uint64_t{snap.coalesced_batches});
  w.key("counters").begin_object()
      .key("connections_accepted").value(load(counters_.connections_accepted))
      .key("requests_served").value(load(counters_.requests_served))
      .key("rejected_requests").value(load(counters_.rejected_requests))
      .key("rejected_ingest").value(load(counters_.rejected_ingest))
      .key("bad_requests").value(load(counters_.bad_requests))
      .key("batches_ingested").value(load(counters_.batches_ingested))
      .key("ops_ingested").value(load(counters_.ops_ingested))
      .key("batches_applied").value(load(counters_.batches_applied))
      .key("epochs_published").value(load(counters_.epochs_published))
      .key("checkpoints_written").value(load(counters_.checkpoints_written))
      .end_object();
  w.key("queues").begin_object()
      .key("pending_requests").value(std::uint64_t{pending_requests})
      .key("pending_ingest").value(std::uint64_t{pending_ingest})
      .key("ingest_oldest_age_seconds").value(ingest_oldest_age)
      .key("max_pending_requests").value(std::uint64_t{opts_.max_pending_requests})
      .key("max_pending_ingest").value(std::uint64_t{opts_.max_pending_ingest})
      .end_object();
  w.key("telemetry").begin_object()
      .key("enabled").value(telemetry_.enabled())
      .key("slow_request_ms").value(std::uint64_t{telemetry_.slow_request_ms()})
      .key("slow_requests").value(telemetry_.slow_requests())
      .key("bytes_in").value(telemetry_.bytes_in())
      .key("bytes_out").value(telemetry_.bytes_out())
      .key("epoch_lag_seconds").value(telemetry_.epoch_lag_seconds())
      .end_object();
  w.key("metrics").raw(obs::Metrics::global().json());
  w.end_object();
  return http_response(200, "application/json", w.str(), keep_alive,
                       {{"X-Epoch", std::to_string(snap.epoch)}});
}

// ---- Telemetry exposition ---------------------------------------------------

std::string Server::handle_metrics(const EpochSnapshot& snap, bool keep_alive) {
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  const obs::WindowedMetrics& win = telemetry_.windowed();
  // One consistent read instant for every windowed series in the scrape.
  const std::int64_t now_s = win.now_seconds();
  static constexpr struct { const char* label; std::size_t seconds; } kWindows[] = {
      {"10s", 10}, {"1m", 60}, {"5m", 300}};
  static constexpr struct { const char* label; double pct; } kQuantiles[] = {
      {"0.5", 50.0}, {"0.9", 90.0}, {"0.99", 99.0}};

  std::size_t pending_requests = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    pending_requests = conn_queue_.size();
  }
  std::size_t pending_ingest = 0;
  double ingest_oldest_age = 0;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    pending_ingest = ingest_queue_.size();
    if (!ingest_queue_.empty()) {
      ingest_oldest_age = seconds_since(ingest_queue_.front().enqueued);
    }
  }

  obs::PromWriter w;
  // -- process / daemon identity ---------------------------------------------
  w.type("mrbc_serve_uptime_seconds", "gauge", "Seconds since the daemon started serving.");
  w.sample("mrbc_serve_uptime_seconds", {}, seconds_since(start_time_));
  w.type("mrbc_serve_resident_memory_bytes", "gauge", "Resident set size (statm).");
  w.sample("mrbc_serve_resident_memory_bytes", {}, resident_bytes());
  w.type("mrbc_serve_clock_seconds", "gauge",
         "Current second on the windowed-metrics clock; external reconciliation "
         "buckets its own samples on this timeline.");
  w.sample("mrbc_serve_clock_seconds", {}, static_cast<double>(now_s));

  // -- epochs -----------------------------------------------------------------
  w.type("mrbc_serve_epoch", "gauge", "Epoch of the currently published snapshot.");
  w.sample("mrbc_serve_epoch", {}, std::uint64_t{snap.epoch});
  w.type("mrbc_serve_epoch_lag_seconds", "gauge", "Seconds since the last epoch publish.");
  w.sample("mrbc_serve_epoch_lag_seconds", {}, telemetry_.epoch_lag_seconds());
  w.type("mrbc_serve_epochs_published_total", "counter", "Epochs published since start.");
  w.sample("mrbc_serve_epochs_published_total", {}, load(counters_.epochs_published));

  // -- requests: cumulative ---------------------------------------------------
  w.type("mrbc_serve_requests_total", "counter", "Requests answered (any status).");
  w.sample("mrbc_serve_requests_total", {}, load(counters_.requests_served));
  w.type("mrbc_serve_rejected_total", "counter", "429 responses by rejection point.");
  w.sample("mrbc_serve_rejected_total", {{"reason", "admission"}},
           load(counters_.rejected_requests));
  w.sample("mrbc_serve_rejected_total", {{"reason", "ingest_backpressure"}},
           load(counters_.rejected_ingest));
  w.type("mrbc_serve_bad_requests_total", "counter", "4xx/5xx parse or handler failures.");
  w.sample("mrbc_serve_bad_requests_total", {}, load(counters_.bad_requests));
  w.type("mrbc_serve_slow_requests_total", "counter",
         "Requests that crossed the slow-request threshold.");
  w.sample("mrbc_serve_slow_requests_total", {}, telemetry_.slow_requests());
  w.type("mrbc_serve_bytes_total", "counter", "Socket bytes by direction.");
  w.sample("mrbc_serve_bytes_total", {{"direction", "in"}}, telemetry_.bytes_in());
  w.sample("mrbc_serve_bytes_total", {{"direction", "out"}}, telemetry_.bytes_out());

  // -- requests: per-endpoint cumulative latency histograms -------------------
  w.type("mrbc_serve_request_duration_us", "histogram",
         "Request wall latency by endpoint, microseconds (cumulative log-linear buckets).");
  for (std::size_t r = 0; r < kNumRoutes; ++r) {
    const auto route = static_cast<Route>(r);
    w.histogram("mrbc_serve_request_duration_us", {{"endpoint", route_label(route)}},
                telemetry_.route_histogram(route));
  }

  // -- requests: windowed rates and tails -------------------------------------
  w.type("mrbc_serve_window_qps", "gauge", "Requests per second over the trailing window.");
  w.type("mrbc_serve_window_errors_per_second", "gauge",
         "Non-429 4xx/5xx responses per second over the trailing window.");
  w.type("mrbc_serve_window_rejected_per_second", "gauge",
         "429 responses per second over the trailing window.");
  w.type("mrbc_serve_window_bytes_per_second", "gauge",
         "Socket bytes per second by direction over the trailing window.");
  w.type("mrbc_serve_window_request_latency_us", "gauge",
         "Windowed request-latency quantiles, microseconds.");
  w.type("mrbc_serve_window_epochs_per_second", "gauge",
         "Epoch publishes per second over the trailing window.");
  for (const auto& win_def : kWindows) {
    const double secs = static_cast<double>(win_def.seconds);
    const obs::PromLabels wl = {{"window", win_def.label}};
    w.sample("mrbc_serve_window_qps", wl,
             static_cast<double>(win.counter_sum(kWinRequests, win_def.seconds, now_s)) / secs);
    w.sample("mrbc_serve_window_errors_per_second", wl,
             static_cast<double>(win.counter_sum(kWinErrors, win_def.seconds, now_s)) / secs);
    w.sample("mrbc_serve_window_rejected_per_second", wl,
             static_cast<double>(win.counter_sum(kWinRejected, win_def.seconds, now_s)) / secs);
    w.sample("mrbc_serve_window_bytes_per_second",
             {{"direction", "in"}, {"window", win_def.label}},
             static_cast<double>(win.counter_sum(kWinBytesIn, win_def.seconds, now_s)) / secs);
    w.sample("mrbc_serve_window_bytes_per_second",
             {{"direction", "out"}, {"window", win_def.label}},
             static_cast<double>(win.counter_sum(kWinBytesOut, win_def.seconds, now_s)) / secs);
    const obs::HistWindow lat = win.hist_window(kWinRequestMicros, win_def.seconds, now_s);
    for (const auto& q : kQuantiles) {
      w.sample("mrbc_serve_window_request_latency_us",
               {{"quantile", q.label}, {"window", win_def.label}}, lat.percentile(q.pct));
    }
    w.sample("mrbc_serve_window_epochs_per_second", wl,
             static_cast<double>(win.counter_sum(kWinEpochs, win_def.seconds, now_s)) / secs);
  }

  // -- ingest pipeline --------------------------------------------------------
  w.type("mrbc_serve_ingest_queue_depth", "gauge", "Batches queued, not yet applied.");
  w.sample("mrbc_serve_ingest_queue_depth", {}, std::uint64_t{pending_ingest});
  w.type("mrbc_serve_ingest_oldest_batch_age_seconds", "gauge",
         "Age of the oldest queued batch; 0 when the queue is empty.");
  w.sample("mrbc_serve_ingest_oldest_batch_age_seconds", {}, ingest_oldest_age);
  w.type("mrbc_serve_pending_requests", "gauge", "Accepted connections awaiting a worker.");
  w.sample("mrbc_serve_pending_requests", {}, std::uint64_t{pending_requests});
  w.type("mrbc_serve_ingest_batches_total", "counter", "Batches admitted via POST /ingest.");
  w.sample("mrbc_serve_ingest_batches_total", {}, load(counters_.batches_ingested));
  w.type("mrbc_serve_ingest_ops_total", "counter", "Edge ops admitted via POST /ingest.");
  w.sample("mrbc_serve_ingest_ops_total", {}, load(counters_.ops_ingested));
  w.type("mrbc_serve_applies_total", "counter", "Coalesced apply passes (epoch transitions).");
  w.sample("mrbc_serve_applies_total", {}, load(counters_.batches_applied));
  w.type("mrbc_serve_ops_applied_total", "counter", "Ingested edge ops that changed the graph.");
  w.sample("mrbc_serve_ops_applied_total", {}, load(counters_.ops_applied));
  w.type("mrbc_serve_sources_reexecuted_total", "counter",
         "Sampled sources re-run because an apply touched their shortest-path DAG.");
  w.sample("mrbc_serve_sources_reexecuted_total", {}, load(counters_.sources_reexecuted));

  // Coalescing factor: admitted batches per apply pass. >1 means bursty
  // writers are amortizing recomputes, the whole point of the coalescing
  // ingest design.
  const std::uint64_t applied = load(counters_.batches_applied);
  const std::uint64_t admitted = load(counters_.batches_ingested);
  w.type("mrbc_serve_coalescing_factor", "gauge",
         "Admitted ingest batches per apply pass (cumulative and windowed).");
  w.sample("mrbc_serve_coalescing_factor", {{"window", "cumulative"}},
           applied == 0 ? 0.0 : static_cast<double>(admitted) / static_cast<double>(applied));
  for (const auto& win_def : kWindows) {
    const std::uint64_t win_applies = win.counter_sum(kWinApplies, win_def.seconds, now_s);
    const std::uint64_t win_batches = win.counter_sum(kWinIngestBatches, win_def.seconds, now_s);
    w.sample("mrbc_serve_coalescing_factor", {{"window", win_def.label}},
             win_applies == 0 ? 0.0
                              : static_cast<double>(win_batches) /
                                    static_cast<double>(win_applies));
  }
  w.type("mrbc_serve_window_apply_latency_us", "gauge",
         "Windowed apply (coalesce+recompute+publish) latency quantiles, microseconds.");
  for (const auto& win_def : kWindows) {
    const obs::HistWindow ap = win.hist_window(kWinApplyMicros, win_def.seconds, now_s);
    for (const auto& q : kQuantiles) {
      w.sample("mrbc_serve_window_apply_latency_us",
               {{"quantile", q.label}, {"window", win_def.label}}, ap.percentile(q.pct));
    }
  }

  return http_response(200, "text/plain; version=0.0.4; charset=utf-8", w.take(), keep_alive,
                       {{"X-Epoch", std::to_string(snap.epoch)}});
}

std::string Server::handle_debug_slow(bool keep_alive) {
  const std::vector<SlowRequest> entries = telemetry_.slow_log();
  util::JsonWriter w;
  w.begin_object()
      .key("threshold_ms").value(std::uint64_t{telemetry_.slow_request_ms()})
      .key("capacity").value(std::uint64_t{telemetry_.slow_log_capacity()})
      .key("total_slow").value(telemetry_.slow_requests())
      .key("requests").begin_array();
  for (const SlowRequest& e : entries) {
    w.begin_object()
        .key("id").value(e.id)
        .key("unix_seconds").value(e.unix_seconds)
        .key("method").value(e.method)
        .key("target").value(e.target)
        .key("status").value(std::int64_t{e.status})
        .key("duration_ms").value(e.duration_ms)
        .end_object();
  }
  w.end_array().end_object();
  return http_response(200, "application/json", w.str(), keep_alive);
}

std::string Server::handle_debug_trace(const HttpRequest& req, bool keep_alive) {
  std::uint64_t seconds = 2;
  const std::string param = req.query_param("seconds");
  if (!param.empty() && (!parse_u64(param, seconds) || seconds == 0)) {
    return error_response(400, "seconds must be a positive integer", keep_alive);
  }
  seconds = std::min<std::uint64_t>(seconds, 30);
  if (!telemetry_.try_begin_trace_capture()) {
    return error_response(409, "a trace capture is already running", keep_alive);
  }
  obs::Tracer& tracer = obs::Tracer::global();
  std::string json;
  try {
    tracer.enable(std::size_t{1} << 17);
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    tracer.disable();
    // Let in-flight spans commit before snapshotting the ring; a capture
    // races live request/ingest threads by design.
    if (!tracer.quiesce(/*timeout_seconds=*/2.0)) {
      MRBC_LOG_WARN << "serve: trace capture exported with spans still open";
    }
    json = tracer.chrome_json();
  } catch (...) {
    tracer.disable();
    telemetry_.end_trace_capture();
    throw;
  }
  telemetry_.end_trace_capture();
  return http_response(200, "application/json", json, keep_alive,
                       {{"X-Trace-Seconds", std::to_string(seconds)}});
}

// ---- Ingest -----------------------------------------------------------------

std::string Server::handle_ingest(const HttpRequest& req, bool keep_alive) {
  // {"ops": [["+", u, v], ["-", u, v], {"op":"insert","src":u,"dst":v}]}
  stream::EdgeBatch batch;
  const util::JsonValue doc = util::json_parse(req.body);  // JsonError → 400
  const auto& ops = doc.at("ops").as_array();
  if (ops.size() > opts_.max_batch_ops) {
    return error_response(413, "batch exceeds max_batch_ops", keep_alive);
  }
  for (const util::JsonValue& op : ops) {
    std::string kind;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (op.is_array()) {
      const auto& a = op.as_array();
      if (a.size() != 3) return error_response(400, "op must be [kind, src, dst]", keep_alive);
      kind = a[0].as_string();
      src = a[1].as_u64();
      dst = a[2].as_u64();
    } else {
      kind = op.at("op").as_string();
      src = op.at("src").as_u64();
      dst = op.at("dst").as_u64();
    }
    if (src > graph::kInvalidVertex - 1 || dst > graph::kInvalidVertex - 1) {
      return error_response(400, "vertex id out of 32-bit range", keep_alive);
    }
    if (kind == "+" || kind == "insert" || kind == "i") {
      batch.insert(static_cast<graph::VertexId>(src), static_cast<graph::VertexId>(dst));
    } else if (kind == "-" || kind == "delete" || kind == "d" || kind == "erase") {
      batch.erase(static_cast<graph::VertexId>(src), static_cast<graph::VertexId>(dst));
    } else {
      return error_response(400, "op kind must be +/insert or -/delete", keep_alive);
    }
  }
  const bool wait = req.query_param("wait") == "1";
  const std::size_t num_ops = batch.size();

  std::uint64_t ticket = 0;
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(ingest_mu_);
    if (draining_.load(std::memory_order_acquire) || ingest_stop_) {
      return error_response(503, "draining", false);
    }
    if (ingest_queue_.size() >= opts_.max_pending_ingest) {
      counters_.rejected_ingest.fetch_add(1, std::memory_order_relaxed);
      return error_response(429, "ingest queue full", keep_alive);
    }
    ticket = next_ticket_++;
    ingest_queue_.push_back({std::move(batch), ticket, Clock::now()});
    depth = ingest_queue_.size();
    counters_.batches_ingested.fetch_add(1, std::memory_order_relaxed);
    counters_.ops_ingested.fetch_add(num_ops, std::memory_order_relaxed);
    telemetry_.on_ingest_admitted(num_ops);
    if (wait) {
      ingest_cv_.notify_one();
      applied_cv_.wait(lock, [this, ticket] { return applied_ticket_ >= ticket; });
    }
  }
  if (!wait) ingest_cv_.notify_one();

  util::JsonWriter w;
  if (wait) {
    const EpochStore::Ptr snap = store_.current();
    w.begin_object()
        .key("applied").value(true)
        .key("ticket").value(ticket)
        .key("ops").value(std::uint64_t{num_ops})
        .key("epoch").value(snap->epoch)
        .end_object();
    return http_response(200, "application/json", w.str(), keep_alive,
                         {{"X-Epoch", std::to_string(snap->epoch)}});
  }
  w.begin_object()
      .key("queued").value(true)
      .key("ticket").value(ticket)
      .key("ops").value(std::uint64_t{num_ops})
      .key("queue_depth").value(std::uint64_t{depth})
      .end_object();
  return http_response(202, "application/json", w.str(), keep_alive);
}

void Server::ingest_loop() {
  while (true) {
    std::vector<PendingBatch> pending;
    {
      std::unique_lock<std::mutex> lock(ingest_mu_);
      ingest_cv_.wait(lock, [this] { return !ingest_queue_.empty() || ingest_stop_; });
      if (ingest_queue_.empty()) return;  // stopped and fully drained
      // Batch coalescing: take EVERYTHING queued right now and fold it
      // into one epoch transition — bursty writers amortize one recompute
      // instead of paying one per batch.
      pending.assign(std::make_move_iterator(ingest_queue_.begin()),
                     std::make_move_iterator(ingest_queue_.end()));
      ingest_queue_.clear();
    }
    if (opts_.debug_apply_delay_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opts_.debug_apply_delay_ms));
    }
    stream::EdgeBatch merged;
    for (PendingBatch& p : pending) {
      merged.ops.insert(merged.ops.end(), p.batch.ops.begin(), p.batch.ops.end());
    }
    const Clock::time_point t0 = Clock::now();
    stream::BatchReport report;
    {
      obs::Span span(obs::Category::kServe, "serve/apply");
      report = engine_->apply(merged);
    }
    publish_epoch(pending.size(), seconds_since(t0));
    counters_.batches_applied.fetch_add(1, std::memory_order_relaxed);
    counters_.ops_applied.fetch_add(report.applied_ops, std::memory_order_relaxed);
    counters_.sources_reexecuted.fetch_add(report.affected_sources, std::memory_order_relaxed);
    telemetry_.on_apply(seconds_since(t0) * 1e6);
    if (obs::metrics_enabled()) {
      obs::Metrics::global()
          .histogram(obs::Hist::kServeCoalescedBatches)
          .record(static_cast<std::uint64_t>(pending.size()));
    }
    {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      applied_ticket_ = pending.back().ticket;
    }
    applied_cv_.notify_all();
    ++batches_since_checkpoint_;
    maybe_checkpoint(/*force=*/false);
  }
}

}  // namespace mrbc::serve
