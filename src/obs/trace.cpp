#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "util/json.h"
#include "util/log.h"

namespace mrbc::obs {

namespace {

thread_local Context tl_context;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<bool> g_progress{false};

}  // namespace

const char* category_name(Category cat) {
  switch (cat) {
    case Category::kComm: return "comm";
    case Category::kCompute: return "compute";
    case Category::kCheckpoint: return "checkpoint";
    case Category::kRecovery: return "recovery";
    case Category::kAlgo: return "algo";
    case Category::kStream: return "stream";
    case Category::kServe: return "serve";
    case Category::kOther: return "other";
  }
  return "?";
}

Context current_context() { return tl_context; }

ScopedContext::ScopedContext(std::uint32_t host, std::uint32_t round) : saved_(tl_context) {
  tl_context = {host, round};
  util::set_log_context(host == kEngineHost ? -1 : static_cast<long>(host),
                        static_cast<long>(round));
}

ScopedContext::~ScopedContext() {
  tl_context = saved_;
  if (saved_.host == kEngineHost && saved_.round == 0) {
    util::clear_log_context();
  } else {
    util::set_log_context(saved_.host == kEngineHost ? -1 : static_cast<long>(saved_.host),
                          static_cast<long>(saved_.round));
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity) {
  detail::g_tracing.store(false, std::memory_order_relaxed);
  // Spans that loaded g_tracing before the store above are still reading
  // the ring and epoch; drain them before mutating either (same contract
  // as snapshotting — see quiesce()). On timeout proceed anyway: a hung
  // span only risks one stale-epoch timestamp, not corruption, and the
  // capture endpoint's busy guard already serializes re-arms.
  quiesce(0.25);
  capacity = std::max<std::size_t>(capacity, 1);
  if (ring_.size() != capacity) ring_.assign(capacity, SpanRecord{});
  next_.store(0, std::memory_order_relaxed);
  epoch_ns_ = steady_ns();
  detail::g_tracing.store(true, std::memory_order_release);
}

void Tracer::disable() { detail::g_tracing.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  next_.store(0, std::memory_order_relaxed);
  epoch_ns_ = steady_ns();
}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

void Tracer::emit(Category cat, const char* name, std::uint32_t host, std::uint32_t round,
                  double start_us, double dur_us, bool modeled) {
  if (ring_.empty()) return;
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  SpanRecord& rec = ring_[slot % ring_.size()];
  rec.name = name;
  rec.start_us = start_us;
  rec.dur_us = dur_us;
  rec.host = host;
  rec.round = round;
  rec.category = cat;
  rec.modeled = modeled;
}

void Tracer::emit_modeled(Category cat, const char* name, std::uint32_t host, std::uint32_t round,
                          double modeled_seconds) {
  // Same inc-recheck-backout protocol as Span::begin: callers gate on
  // tracing_enabled() without holding active_, so a concurrent enable()
  // re-arm could otherwise mutate the ring under this write.
  active_.fetch_add(1, std::memory_order_acq_rel);
  if (tracing_enabled()) {
    emit(cat, name, host, round, now_us(), modeled_seconds * 1e6, /*modeled=*/true);
  }
  active_.fetch_sub(1, std::memory_order_acq_rel);
}

std::size_t Tracer::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(next_.load(std::memory_order_relaxed), ring_.size()));
}

std::uint64_t Tracer::dropped() const {
  const std::uint64_t total = next_.load(std::memory_order_relaxed);
  return total > ring_.size() ? total - ring_.size() : 0;
}

bool Tracer::quiesce(double timeout_seconds) const {
  const std::int64_t deadline =
      steady_ns() + static_cast<std::int64_t>(timeout_seconds * 1e9);
  // Double-check with a grace gap: a thread that loaded g_tracing just
  // before disable() may not have incremented active_ yet.
  int clean_passes = 0;
  while (clean_passes < 2) {
    if (active_.load(std::memory_order_acquire) != 0) {
      if (steady_ns() >= deadline) return false;
      clean_passes = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    ++clean_passes;
    if (clean_passes < 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<SpanRecord> out;
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  if (ring_.empty() || total == 0) return out;
  const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(total, ring_.size()));
  out.reserve(n);
  // Oldest retained record first: with wrap-around that is slot total % cap.
  const std::uint64_t first = total > ring_.size() ? total - ring_.size() : 0;
  for (std::uint64_t i = first; i < total; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> records = snapshot();
  // Microseconds rounded to the nanosecond: finer digits are clock noise
  // that only grows the file.
  const auto us = [](double v) { return std::round(v * 1e3) / 1e3; };
  util::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  // pid 0 is the engine lane; host h renders as pid h + 1.
  std::vector<std::uint64_t> pids;
  for (const SpanRecord& r : records) {
    const std::uint64_t pid = r.host == kEngineHost ? 0 : std::uint64_t{r.host} + 1;
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) pids.push_back(pid);
    w.begin_object()
        .key("name").value(r.name != nullptr ? r.name : "?")
        .key("cat").value(category_name(r.category))
        .key("ph").value("X")
        .key("ts").value(us(r.start_us))
        .key("dur").value(us(r.dur_us))
        .key("pid").value(pid)
        .key("tid").value(pid)
        .key("args").begin_object()
            .key("round").value(r.round)
            .key("modeled").value(r.modeled)
            .end_object()
        .end_object();
  }
  // Process-name metadata so Perfetto labels the lanes.
  for (std::uint64_t pid : pids) {
    w.begin_object()
        .key("name").value("process_name")
        .key("ph").value("M")
        .key("pid").value(pid)
        .key("args").begin_object()
            .key("name").value(pid == 0 ? "engine" : "host " + std::to_string(pid - 1))
            .end_object()
        .end_object();
  }
  w.end_array().key("displayTimeUnit").value("ms").end_object();
  return w.take();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  f << chrome_json();
  if (!f) throw std::runtime_error("failed writing trace file: " + path);
}

void Span::begin(Category cat, const char* name, std::uint32_t host, std::uint32_t round) {
  Tracer& tracer = Tracer::global();
  tracer.active_.fetch_add(1, std::memory_order_acq_rel);
  if (!tracing_enabled()) {
    // Raced with disable(): a capture may already be exporting; back out
    // without emitting so quiesce() stays honest.
    tracer.active_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  name_ = name;
  cat_ = cat;
  host_ = host;
  round_ = round;
  start_us_ = tracer.now_us();
}

void Span::begin_with_context(Category cat, const char* name) {
  const Context ctx = tl_context;
  begin(cat, name, ctx.host, ctx.round);
}

void Span::finish() {
  Tracer& tracer = Tracer::global();
  const double dur_us = tracer.now_us() - start_us_;
  tracer.emit(cat_, name_, host_, round_, start_us_, dur_us, /*modeled=*/false);
  tracer.active_.fetch_sub(1, std::memory_order_acq_rel);
  if (metrics_enabled()) {
    Metrics::global()
        .histogram(Hist::kSpanMicros)
        .record(static_cast<std::uint64_t>(dur_us < 0 ? 0 : dur_us));
  }
}

// ---- Progress ticker --------------------------------------------------------

void set_progress(bool on) { g_progress.store(on, std::memory_order_relaxed); }
bool progress_enabled() { return g_progress.load(std::memory_order_relaxed); }

void progress_tick(std::size_t round, double compute_seconds, double network_seconds,
                   std::size_t bytes) {
  // Throttle to ~10 prints/second; the first tick always prints.
  static std::atomic<std::int64_t> last_print_ns{-1};
  const std::int64_t now = steady_ns();
  std::int64_t last = last_print_ns.load(std::memory_order_relaxed);
  if (last >= 0 && now - last < 100'000'000) return;
  if (!last_print_ns.compare_exchange_strong(last, now, std::memory_order_relaxed)) return;
  std::fprintf(stderr, "progress: round=%zu compute=%.3fs network=%.3fs traffic=%.2fMB\n", round,
               compute_seconds, network_seconds, static_cast<double>(bytes) / 1e6);
}

}  // namespace mrbc::obs
