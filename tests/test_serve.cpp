// Service layer: HTTP parser edge cases and chunking fuzz, JSON
// escape/parse round trips, the epoch store's torn-read guarantee under
// concurrent churn, admission control (429 at the door), graceful drain,
// and restart-from-checkpoint score identity — all over a real socket
// against a live Server.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analytics/connected_components.h"
#include "analytics/kcore.h"
#include "analytics/pagerank.h"
#include "graph/generators.h"
#include "obs/prometheus.h"
#include "serve/epoch_store.h"
#include "serve/telemetry.h"
#include "serve/http.h"
#include "serve/server.h"
#include "stream/incremental_bc.h"
#include "util/json.h"
#include "util/rng.h"

namespace mrbc {
namespace {

using serve::EpochSnapshot;
using serve::EpochStore;
using serve::HttpClient;
using serve::HttpParser;
using serve::HttpRequest;
using serve::Server;
using serve::ServerOptions;
using util::JsonValue;
using util::JsonWriter;

std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("mrbc_serve_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---- HTTP parser ------------------------------------------------------------

HttpRequest parse_all(const std::string& text) {
  HttpParser p;
  const std::size_t used = p.consume(text);
  EXPECT_TRUE(p.complete()) << p.error_reason();
  EXPECT_EQ(used, text.size());
  return p.take_request();
}

TEST(HttpParser, ParsesGetWithQuery) {
  const HttpRequest req =
      parse_all("GET /bc?vertex=3&all=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/bc");
  EXPECT_EQ(req.query_param("vertex"), "3");
  EXPECT_EQ(req.query_param("all"), "1");
  EXPECT_EQ(req.query_param("absent", "dflt"), "dflt");
  EXPECT_TRUE(req.keep_alive());
}

TEST(HttpParser, ParsesPostBodyByContentLength) {
  const HttpRequest req = parse_all(
      "POST /ingest HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"ops\":[]}x");
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "{\"ops\":[]}x");
}

TEST(HttpParser, EveryByteSplitParsesIdentically) {
  // Byte-split agnosticism: feeding the same message one byte at a time,
  // two at a time, ... must always produce the identical request.
  const std::string msg =
      "POST /ingest?wait=1 HTTP/1.1\r\nContent-Type: application/json\r\n"
      "Content-Length: 20\r\n\r\n{\"ops\":[[\"+\",1,2]]}\n";
  const HttpRequest golden = parse_all(msg);
  for (std::size_t stride = 1; stride <= msg.size(); ++stride) {
    HttpParser p;
    std::size_t off = 0;
    while (off < msg.size() && !p.complete() && !p.error()) {
      const std::size_t n = std::min(stride, msg.size() - off);
      off += p.consume(msg.data() + off, n);
    }
    ASSERT_TRUE(p.complete()) << "stride " << stride << ": " << p.error_reason();
    const HttpRequest req = p.take_request();
    EXPECT_EQ(req.path, golden.path);
    EXPECT_EQ(req.query, golden.query);
    EXPECT_EQ(req.body, golden.body);
    EXPECT_EQ(req.headers, golden.headers);
  }
}

TEST(HttpParser, PipelinedRequestsLeaveRemainder) {
  const std::string two =
      "GET /healthz HTTP/1.1\r\n\r\nGET /epoch HTTP/1.1\r\n\r\n";
  HttpParser p;
  const std::size_t used = p.consume(two);
  ASSERT_TRUE(p.complete());
  EXPECT_LT(used, two.size());
  EXPECT_EQ(p.take_request().path, "/healthz");
  p.reset();
  EXPECT_EQ(p.consume(two.data() + used, two.size() - used), two.size() - used);
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.take_request().path, "/epoch");
}

TEST(HttpParser, RejectsMalformedInputsWithStatus) {
  const auto status_of = [](const std::string& text) {
    HttpParser p;
    p.consume(text);
    return p.error() ? p.error_status() : 0;
  };
  EXPECT_EQ(status_of("GARBAGE\r\n\r\n"), 400);
  EXPECT_EQ(status_of("GET /x HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(status_of("GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"), 501);
  EXPECT_EQ(status_of("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"), 400);
  EXPECT_EQ(status_of("POST /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n"), 400);
  EXPECT_EQ(status_of("GET /x HTTP/1.1\r\nNo colon here\r\n\r\n"), 400);
}

TEST(HttpParser, BoundsHeadAndBody) {
  HttpParser::Limits tight;
  tight.max_head_bytes = 64;
  tight.max_body_bytes = 8;
  {
    HttpParser p(tight);
    const std::string long_head =
        "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
    p.consume(long_head);
    ASSERT_TRUE(p.error());
    EXPECT_EQ(p.error_status(), 431);
  }
  {
    HttpParser p(tight);
    p.consume("POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
    ASSERT_TRUE(p.error());
    EXPECT_EQ(p.error_status(), 413);
  }
}

TEST(HttpParser, FuzzNeverCrashesAndAlwaysTerminates) {
  // Random byte soup, random chunking: the parser must always land in
  // complete or error without reading out of bounds (ASAN-checked in CI).
  util::SplitMix64 rng(2026);
  const std::string alphabet =
      "GETPOST/ ?=&%0123456789abcdef\r\n\t:;.{}[]\"\\\x01\x80\xff";
  for (int iter = 0; iter < 500; ++iter) {
    std::string soup;
    const std::size_t len = 1 + rng.next() % 300;
    for (std::size_t i = 0; i < len; ++i) {
      soup += alphabet[rng.next() % alphabet.size()];
    }
    HttpParser p;
    std::size_t off = 0;
    while (off < soup.size() && !p.complete() && !p.error()) {
      const std::size_t n = 1 + rng.next() % 17;
      const std::size_t used =
          p.consume(soup.data() + off, std::min(n, soup.size() - off));
      if (used == 0) break;
      off += used;
    }
    // No assertion on the outcome — surviving arbitrary input is the test.
  }
}

TEST(HttpParser, UrlDecodeHandlesEscapes) {
  EXPECT_EQ(serve::url_decode("a%20b"), "a b");
  EXPECT_EQ(serve::url_decode("%2Fpath"), "/path");
  EXPECT_EQ(serve::url_decode("plus+stays"), "plus+stays");
  EXPECT_EQ(serve::url_decode("bad%zz"), "bad%zz");  // invalid escape passes through
  EXPECT_EQ(serve::url_decode("trunc%2"), "trunc%2");
}

// ---- JSON -------------------------------------------------------------------

TEST(Json, EscapingRoundTripsThroughParser) {
  const std::string nasty =
      std::string("quote\" backslash\\ newline\n tab\t nul") + '\0' +
      "ctrl\x01 high\xc3\xa9 end";
  JsonWriter w;
  w.begin_object().key("s").value(nasty).end_object();
  const JsonValue doc = util::json_parse(w.str());
  EXPECT_EQ(doc.at("s").as_string(), nasty);
}

TEST(Json, DoublesRoundTripBitIdentically) {
  util::SplitMix64 rng(7);
  std::vector<double> values = {0.0, -0.0, 1.0, 1e-300, 1e300, 0.1,
                                3.141592653589793, 2.2250738585072014e-308};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t bits = rng.next();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
  }
  for (double d : values) {
    JsonWriter w;
    w.begin_array().value(d).end_array();
    const double back = util::json_parse(w.str()).as_array()[0].as_double();
    std::uint64_t eb, ab;
    std::memcpy(&eb, &d, sizeof eb);
    std::memcpy(&ab, &back, sizeof ab);
    EXPECT_EQ(eb, ab) << d;
  }
}

TEST(Json, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array().value(std::nan("")).value(HUGE_VAL).end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, ParserRejectsMalformedDocuments) {
  const char* bad[] = {
      "",      "{",        "}",          "[1,]",        "{\"a\":}",
      "01",    "1.",       "+1",         "'single'",    "{\"a\" 1}",
      "[1] x", "\"\\q\"",  "\"\\ud800\"", "{\"a\":1,}", "nul",
      "\"unterminated",    "{\"dup\":1 \"b\":2}",
  };
  for (const char* text : bad) {
    EXPECT_THROW(util::json_parse(text), util::JsonError) << text;
  }
}

TEST(Json, ParserHandlesSurrogatePairsAndDepth) {
  EXPECT_EQ(util::json_parse("\"\\ud83d\\ude00\"").as_string(), "\xf0\x9f\x98\x80");
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(util::json_parse(deep), util::JsonError);
  std::string ok(60, '[');
  ok += "1";
  ok += std::string(60, ']');
  EXPECT_NO_THROW(util::json_parse(ok));
}

TEST(Json, U64AccessorIsStrict) {
  EXPECT_EQ(util::json_parse("42").as_u64(), 42u);
  EXPECT_THROW(util::json_parse("-1").as_u64(), util::JsonError);
  EXPECT_THROW(util::json_parse("1.5").as_u64(), util::JsonError);
  EXPECT_THROW(util::json_parse("\"42\"").as_u64(), util::JsonError);
}

// ---- EpochStore torn-read guarantee -----------------------------------------

TEST(EpochStore, ReadersNeverObserveTornSnapshots) {
  // Every field of every published snapshot encodes the same sequence
  // number; a reader that ever sees two fields disagree has observed a
  // torn epoch. Hammer with concurrent readers while publishing.
  EpochStore store;
  {
    auto s0 = std::make_shared<EpochSnapshot>();
    s0->epoch = 0;
    s0->bc = {0.0};
    s0->num_vertices = 1;
    store.publish(std::move(s0));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const EpochStore::Ptr snap = store.current();
        const double want = static_cast<double>(snap->epoch);
        for (double b : snap->bc) {
          if (b != want) torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (snap->num_vertices != snap->bc.size()) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::uint64_t e = 1; e <= 2000; ++e) {
    auto snap = std::make_shared<EpochSnapshot>();
    snap->epoch = e;
    snap->bc.assign(1 + e % 64, static_cast<double>(e));
    snap->num_vertices = static_cast<graph::VertexId>(snap->bc.size());
    store.publish(std::move(snap));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(store.publishes(), 2001u);
  EXPECT_EQ(store.current()->publish_seq, 2001u);
}

// ---- Live server ------------------------------------------------------------

ServerOptions small_options() {
  ServerOptions o;
  o.request_threads = 2;
  o.run_analytics = true;
  o.kcore_k = 2;
  o.bc.num_samples = 8;
  o.bc.mrbc.num_hosts = 2;
  return o;
}

std::string ingest_body(const std::vector<std::tuple<char, int, int>>& ops) {
  JsonWriter w;
  w.begin_object().key("ops").begin_array();
  for (const auto& [kind, u, v] : ops) {
    w.begin_array().value(std::string(1, kind)).value(std::int64_t{u}).value(std::int64_t{v});
    w.end_array();
  }
  w.end_array().end_object();
  return w.take();
}

TEST(ServeDaemon, ServesQueriesAndIngestsOverSocket) {
  Server server(graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 5}), small_options());
  server.start();
  HttpClient client(server.port());

  auto health = client.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(util::json_parse(health.body).at("status").as_string(), "ok");

  auto bc = client.get("/bc?vertex=3");
  EXPECT_EQ(bc.status, 200);
  EXPECT_EQ(util::json_parse(bc.body).at("epoch").as_u64(), 0u);
  EXPECT_EQ(bc.headers.at("x-epoch"), "0");

  auto multi = client.get("/bc?vertices=1,2,3");
  EXPECT_EQ(multi.status, 200);
  EXPECT_EQ(util::json_parse(multi.body).at("bc").as_array().size(), 3u);

  auto topk = client.get("/topk?k=5");
  EXPECT_EQ(topk.status, 200);
  const JsonValue ranked = util::json_parse(topk.body);
  ASSERT_EQ(ranked.at("results").as_array().size(), 5u);
  // Deterministic descending order.
  double prev = 1e308;
  for (const JsonValue& r : ranked.at("results").as_array()) {
    const double s = r.at("score").as_double();
    EXPECT_LE(s, prev);
    prev = s;
  }

  EXPECT_EQ(client.get("/pagerank?vertex=1").status, 200);
  EXPECT_EQ(client.get("/cc?vertex=1").status, 200);
  EXPECT_EQ(client.get("/kcore?vertex=1").status, 200);
  EXPECT_EQ(client.get("/bc?vertex=999999").status, 404);
  EXPECT_EQ(client.get("/bc?vertex=abc").status, 400);
  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.post("/ingest", "{not json").status, 400);
  EXPECT_EQ(client.post("/ingest", "{\"ops\":[[\"*\",1,2]]}").status, 400);

  // Synchronous ingest: epoch advances and is visible immediately after.
  auto applied = client.post("/ingest?wait=1", ingest_body({{'+', 1, 60}, {'+', 60, 61}}));
  EXPECT_EQ(applied.status, 200);
  const std::uint64_t epoch = util::json_parse(applied.body).at("epoch").as_u64();
  EXPECT_GE(epoch, 1u);
  auto after = client.get("/epoch");
  EXPECT_EQ(util::json_parse(after.body).at("epoch").as_u64(), epoch);

  // Async ingest acks with a ticket.
  auto queued = client.post("/ingest", ingest_body({{'-', 1, 60}}));
  EXPECT_EQ(queued.status, 202);
  EXPECT_TRUE(util::json_parse(queued.body).at("queued").as_bool());

  auto stats = client.get("/stats");
  EXPECT_EQ(stats.status, 200);
  const JsonValue parsed = util::json_parse(stats.body);
  EXPECT_GE(parsed.at("counters").at("requests_served").as_u64(), 10u);

  server.stop();
  // Drain applied the queued batch before exiting.
  EXPECT_GE(server.engine_epoch(), epoch + 1);
}

TEST(ServeDaemon, AnalyticsOnEnginePartitionMatchGraphOverloads) {
  // Each epoch's analytics run on the engine's partition of the serving
  // graph; under the default policy that is the partition the graph
  // overloads build for themselves, so the published values are the same.
  const ServerOptions opts = small_options();
  graph::Graph g =
      stream::normalize_rows(graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 5}));
  Server server(g, opts);
  const auto expect_graph_overloads = [&](const graph::Graph& now, const std::string& when) {
    const EpochStore::Ptr snap = server.store().current();
    const partition::HostId hosts = opts.bc.mrbc.num_hosts;
    analytics::PagerankOptions pr;
    pr.max_iterations = opts.pagerank_iterations;
    EXPECT_EQ(snap->pagerank, analytics::pagerank(now, hosts, pr).rank) << when;
    EXPECT_EQ(snap->component, analytics::connected_components(now, hosts).component) << when;
    const std::vector<bool> in_core = analytics::kcore(now, opts.kcore_k, hosts).in_core;
    ASSERT_EQ(snap->in_kcore.size(), in_core.size()) << when;
    for (std::size_t v = 0; v < in_core.size(); ++v) {
      EXPECT_EQ(snap->in_kcore[v] != 0, in_core[v]) << when << " v=" << v;
    }
  };
  expect_graph_overloads(g, "after construction");

  // One ingest that both inserts and deletes edges.
  graph::VertexId u = 0;
  while (g.out_degree(u) == 0) ++u;
  const graph::VertexId w = g.out_neighbors(u)[0];
  stream::EdgeBatch batch;
  batch.insert(1, 40);
  batch.insert(40, 7);
  batch.erase(u, w);
  server.start();
  HttpClient client(server.port());
  ASSERT_EQ(client
                .post("/ingest?wait=1",
                      ingest_body({{'+', 1, 40}, {'+', 40, 7}, {'-', static_cast<int>(u),
                                                               static_cast<int>(w)}}))
                .status,
            200);
  g = stream::apply_batch(std::move(g), batch).graph;
  expect_graph_overloads(g, "after one ingest");
  server.stop();
}

TEST(ServeDaemon, EpochResponsesAreConsistentUnderChurn) {
  // Drive the same batches through a local replica engine (wait=1 keeps a
  // 1:1 batch->epoch mapping), while concurrent readers fetch the full BC
  // vector. Every response must match the replica's table at exactly the
  // epoch the response claims — a mixed-epoch response cannot match any
  // single table.
  const graph::Graph base = graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 9});
  ServerOptions opts = small_options();
  opts.run_analytics = false;  // keep the churn loop fast
  Server server(graph::Graph(base.out_offsets(), base.out_targets()), opts);
  server.start();

  stream::IncrementalBcOptions replica_opts = opts.bc;
  stream::IncrementalBc replica(graph::Graph(base.out_offsets(), base.out_targets()),
                                replica_opts);
  std::vector<std::vector<double>> by_epoch;  // epoch -> scaled scores
  by_epoch.push_back(replica.scaled_scores());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> mismatched{0};
  std::mutex table_mu;  // guards by_epoch growth

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      HttpClient rc(server.port());
      while (!stop.load(std::memory_order_acquire)) {
        HttpClient::Response resp;
        try {
          resp = rc.get("/bc?all=1");
        } catch (const std::exception&) {
          continue;  // daemon busy; reconnect next round
        }
        if (resp.status != 200) continue;
        const JsonValue doc = util::json_parse(resp.body);
        const std::uint64_t epoch = doc.at("epoch").as_u64();
        std::vector<double> expect;
        {
          std::lock_guard<std::mutex> lock(table_mu);
          if (epoch >= by_epoch.size()) continue;  // replica not caught up
          expect = by_epoch[epoch];
        }
        const auto& got = doc.at("bc").as_array();
        bool ok = got.size() == expect.size();
        for (std::size_t i = 0; ok && i < expect.size(); ++i) {
          ok = got[i].as_double() == expect[i];
        }
        checked.fetch_add(1, std::memory_order_relaxed);
        if (!ok) mismatched.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  util::SplitMix64 rng(17);
  HttpClient writer(server.port());
  const graph::VertexId n = base.num_vertices();
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<std::tuple<char, int, int>> ops;
    stream::EdgeBatch replica_batch;
    for (int j = 0; j < 4; ++j) {
      const auto u = static_cast<graph::VertexId>(rng.next() % n);
      const auto v = static_cast<graph::VertexId>(rng.next() % n);
      if (u == v) continue;
      ops.push_back({'+', static_cast<int>(u), static_cast<int>(v)});
      replica_batch.insert(u, v);
    }
    const auto resp = writer.post("/ingest?wait=1", ingest_body(ops));
    ASSERT_EQ(resp.status, 200);
    const std::uint64_t epoch = util::json_parse(resp.body).at("epoch").as_u64();
    replica.apply(replica_batch);
    ASSERT_EQ(replica.epoch(), epoch) << "replica diverged from daemon";
    {
      std::lock_guard<std::mutex> lock(table_mu);
      ASSERT_EQ(by_epoch.size(), epoch);
      by_epoch.push_back(replica.scaled_scores());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  server.stop();
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(mismatched.load(), 0u);
}

TEST(ServeDaemon, AdmissionControlRejectsWith429) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  opts.request_threads = 1;
  opts.max_pending_requests = 2;
  opts.debug_handler_delay_ms = 150;  // hold the lone worker busy
  Server server(graph::complete(8), opts);
  server.start();

  std::atomic<int> ok{0}, rejected{0}, failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      try {
        HttpClient c(server.port());
        const auto resp = c.get("/healthz");
        if (resp.status == 200) ok.fetch_add(1);
        else if (resp.status == 429) rejected.fetch_add(1);
        else failed.fetch_add(1);
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  server.stop();
  // With 1 slow worker and a 2-deep queue, 8 simultaneous clients cannot
  // all be admitted — and the admitted ones must all succeed.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(server.counters().rejected_requests.load(),
            static_cast<std::uint64_t>(rejected.load()));
}

TEST(ServeDaemon, IngestQueueIsBounded) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  opts.max_pending_ingest = 1;
  opts.debug_handler_delay_ms = 0;
  Server server(graph::complete(6), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);
  // Flood without wait: at least one must hit the bounded queue once the
  // ingest thread falls behind (each apply takes ~ms on complete(6)).
  int rejected = 0;
  for (int i = 0; i < 50; ++i) {
    const auto resp = c.post("/ingest", ingest_body({{'+', i % 5, (i + 1) % 5}}));
    if (resp.status == 429) ++rejected;
    else ASSERT_EQ(resp.status, 202);
  }
  server.stop();
  EXPECT_EQ(static_cast<std::uint64_t>(rejected),
            server.counters().rejected_ingest.load());
}

TEST(ServeDaemon, RestartFromCheckpointServesIdenticalScores) {
  const std::string dir = scratch_dir("restart");
  ServerOptions opts = small_options();
  opts.checkpoint_dir = dir;

  std::string before_drain;
  std::uint64_t epoch_before = 0;
  {
    Server server(graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 21}), opts);
    server.start();
    HttpClient c(server.port());
    ASSERT_EQ(c.post("/ingest?wait=1", ingest_body({{'+', 2, 50}, {'+', 50, 51}})).status,
              200);
    ASSERT_EQ(c.post("/ingest?wait=1", ingest_body({{'-', 2, 50}, {'+', 51, 2}})).status,
              200);
    const auto resp = c.get("/bc?all=1");
    ASSERT_EQ(resp.status, 200);
    before_drain = resp.body;
    epoch_before = util::json_parse(resp.body).at("epoch").as_u64();
    server.stop();  // persists serve.ckpt
  }
  ASSERT_TRUE(std::filesystem::exists(Server::checkpoint_path(dir)));
  {
    // A brand-new process-equivalent: restore purely from disk (the graph
    // argument is ignored when a checkpoint exists).
    Server server(graph::Graph(), opts);
    server.start();
    HttpClient c(server.port());
    const auto resp = c.get("/bc?all=1");
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(util::json_parse(resp.body).at("epoch").as_u64(), epoch_before);
    // Bit-identical response body: same epoch, same scores, same encoding.
    EXPECT_EQ(resp.body, before_drain);
    server.stop();
  }
}

// ---- Telemetry plane --------------------------------------------------------

TEST(ServeTelemetry, MetricsEndpointIsStrictlyParseable) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  Server server(graph::complete(8), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(c.get("/bc?vertex=1").status, 200);
  const auto counter = [&](const char* name) {
    const auto scrape = c.get("/metrics");
    EXPECT_EQ(scrape.status, 200);
    const std::vector<obs::PromSample> samples = obs::prom_parse(scrape.body);
    const obs::PromSample* sample = obs::prom_find(samples, name);
    return sample == nullptr ? -1.0 : sample->value;
  };
  const double ops_before = counter("mrbc_serve_ops_applied_total");
  const double reexec_before = counter("mrbc_serve_sources_reexecuted_total");
  // Every vertex of complete(8) is a sampled source; deleting (1, 2) takes
  // an edge off source 1's shortest-path DAG, so source 1 re-runs.
  ASSERT_EQ(c.post("/ingest?wait=1", ingest_body({{'-', 1, 2}})).status, 200);
  EXPECT_EQ(counter("mrbc_serve_ops_applied_total"), ops_before + 1);
  EXPECT_EQ(counter("mrbc_serve_sources_reexecuted_total"), reexec_before + 1);
  c.get("/nope");  // one 404 so error series have traffic

  const auto resp = c.get("/metrics");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.headers.at("content-type").find("version=0.0.4"), std::string::npos);
  // The strict parser is the whole point: "it rendered" must imply "a real
  // scraper would accept it".
  std::vector<obs::PromSample> samples;
  ASSERT_NO_THROW(samples = obs::prom_parse(resp.body)) << resp.body;
  for (const char* name : {
           "mrbc_serve_uptime_seconds", "mrbc_serve_resident_memory_bytes",
           "mrbc_serve_clock_seconds", "mrbc_serve_epoch", "mrbc_serve_epoch_lag_seconds",
           "mrbc_serve_requests_total", "mrbc_serve_bad_requests_total",
           "mrbc_serve_bytes_total", "mrbc_serve_window_qps",
           "mrbc_serve_window_request_latency_us", "mrbc_serve_ingest_queue_depth",
           "mrbc_serve_ingest_oldest_batch_age_seconds", "mrbc_serve_coalescing_factor",
           "mrbc_serve_ops_applied_total", "mrbc_serve_sources_reexecuted_total",
       }) {
    EXPECT_NE(obs::prom_find(samples, name), nullptr) << name;
  }
  EXPECT_NE(obs::prom_find(samples, "mrbc_serve_rejected_total", {{"reason", "admission"}}),
            nullptr);
  // All three windows render for every windowed series.
  for (const char* window : {"10s", "1m", "5m"}) {
    EXPECT_NE(obs::prom_find(samples, "mrbc_serve_window_qps", {{"window", window}}), nullptr)
        << window;
  }
  // Per-endpoint cumulative latency histogram carries the /bc traffic.
  const auto* bc_count =
      obs::prom_find(samples, "mrbc_serve_request_duration_us_count", {{"endpoint", "/bc"}});
  ASSERT_NE(bc_count, nullptr);
  EXPECT_GE(bc_count->value, 5.0);
  const auto* epoch = obs::prom_find(samples, "mrbc_serve_epoch");
  ASSERT_NE(epoch, nullptr);
  EXPECT_GE(epoch->value, 1.0);  // the wait=1 ingest published
  server.stop();
}

TEST(ServeTelemetry, RequestIdsEchoAndIncrease) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  Server server(graph::complete(8), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);
  std::uint64_t prev = 0;
  for (int i = 0; i < 4; ++i) {
    const auto resp = c.get("/healthz");
    ASSERT_EQ(resp.status, 200);
    const auto it = resp.headers.find("x-request-id");
    ASSERT_NE(it, resp.headers.end());
    const std::uint64_t id = std::stoull(it->second);
    EXPECT_GT(id, prev) << "request ids must increase";
    prev = id;
    // The echoed handler time is a parseable non-negative integer.
    ASSERT_NE(resp.headers.find("x-request-us"), resp.headers.end());
    EXPECT_GE(std::stoll(resp.headers.at("x-request-us")), 0);
  }
  server.stop();
}

TEST(ServeTelemetry, SlowLogIsBoundedAndNewestFirst) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  opts.slow_request_ms = 1;
  opts.slow_log_capacity = 3;
  opts.debug_handler_delay_ms = 5;  // every request crosses the 1ms bar
  Server server(graph::complete(8), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);
  for (int i = 0; i < 8; ++i) ASSERT_EQ(c.get("/healthz").status, 200);

  const auto resp = c.get("/debug/slow");
  ASSERT_EQ(resp.status, 200);
  const JsonValue doc = util::json_parse(resp.body);
  EXPECT_EQ(doc.at("threshold_ms").as_u64(), 1u);
  EXPECT_EQ(doc.at("capacity").as_u64(), 3u);
  EXPECT_GE(doc.at("total_slow").as_u64(), 8u);
  const auto& entries = doc.at("requests").as_array();
  // Bounded at capacity despite 8+ slow requests, newest first.
  ASSERT_EQ(entries.size(), 3u);
  std::uint64_t prev_id = UINT64_MAX;
  for (const JsonValue& e : entries) {
    const std::uint64_t id = e.at("id").as_u64();
    EXPECT_LT(id, prev_id) << "slow log must be newest-first";
    prev_id = id;
    EXPECT_EQ(e.at("method").as_string(), "GET");
    EXPECT_EQ(e.at("status").as_u64(), 200u);
    EXPECT_GE(e.at("duration_ms").as_double(), 1.0);
    EXPECT_GT(e.at("unix_seconds").as_double(), 0.0);
  }
  server.stop();
}

TEST(ServeTelemetry, DebugTraceYieldsChromeJsonUnderChurn) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  Server server(graph::complete(10), opts);
  server.start();

  // Keep queries and ingest flowing for the whole capture window so the
  // trace must contain request spans and apply/publish spans.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    HttpClient cc(server.port(), /*keep_alive=*/true);
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      cc.get("/bc?vertex=1");
      cc.post("/ingest", ingest_body({{'+', i % 9, (i + 1) % 9}}));
      ++i;
    }
  });

  HttpClient c(server.port());
  const auto resp = c.get("/debug/trace?seconds=1");
  stop.store(true, std::memory_order_release);
  churn.join();
  ASSERT_EQ(resp.status, 200);
  // Chrome's about:tracing loads JSON: parse it with the strict parser and
  // check the spans a human would look for are present.
  const JsonValue doc = util::json_parse(resp.body);
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_GT(events.size(), 0u);
  bool saw_request = false, saw_apply = false;
  for (const JsonValue& e : events) {
    const JsonValue* name = e.find("name");
    if (name == nullptr || !name->is_string()) continue;
    if (name->as_string() == "GET /bc" || name->as_string() == "POST /ingest") {
      saw_request = true;
    }
    if (name->as_string() == "serve/apply") saw_apply = true;
  }
  EXPECT_TRUE(saw_request) << "no request spans captured";
  EXPECT_TRUE(saw_apply) << "no ingest apply spans captured";

  // Malformed seconds is a client error, not a capture.
  EXPECT_EQ(c.get("/debug/trace?seconds=banana").status, 400);
  server.stop();
}

TEST(ServeTelemetry, ConcurrentTraceCaptureIsRejected) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  Server server(graph::complete(8), opts);
  server.start();

  std::thread first([&] {
    HttpClient a(server.port());
    EXPECT_EQ(a.get("/debug/trace?seconds=1").status, 200);
  });
  // Land well inside the first capture's window.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  HttpClient b(server.port());
  EXPECT_EQ(b.get("/debug/trace?seconds=1").status, 409);
  first.join();
  server.stop();
}

TEST(ServeTelemetry, StatsReportsIngestQueueAge) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  opts.debug_apply_delay_ms = 400;  // hold the ingest thread mid-pass
  Server server(graph::complete(6), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);

  ASSERT_EQ(c.post("/ingest", ingest_body({{'+', 1, 2}})).status, 202);
  // Wait for the ingest thread to take the first batch (queue drains to 0
  // and the thread starts its 400ms delay).
  for (int i = 0; i < 100; ++i) {
    const JsonValue s = util::json_parse(c.get("/stats").body);
    if (s.at("queues").at("pending_ingest").as_u64() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // This batch now queues behind the in-flight pass and ages visibly.
  ASSERT_EQ(c.post("/ingest", ingest_body({{'+', 2, 3}})).status, 202);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const JsonValue stats = util::json_parse(c.get("/stats").body);
  EXPECT_GE(stats.at("queues").at("pending_ingest").as_u64(), 1u);
  EXPECT_GE(stats.at("queues").at("ingest_oldest_age_seconds").as_double(), 0.05);
  EXPECT_TRUE(stats.at("telemetry").at("enabled").as_bool());
  server.stop();
}

TEST(ServeTelemetry, NoTelemetryDisablesPlane) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  opts.telemetry = false;
  Server server(graph::complete(8), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);

  const auto health = c.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.headers.count("x-request-id"), 0u);
  EXPECT_EQ(health.headers.count("x-request-us"), 0u);
  EXPECT_EQ(c.get("/metrics").status, 404);
  EXPECT_EQ(c.get("/debug/slow").status, 404);
  const JsonValue stats = util::json_parse(c.get("/stats").body);
  EXPECT_FALSE(stats.at("telemetry").at("enabled").as_bool());
  server.stop();
}

TEST(ServeTelemetry, SlowThresholdResolutionLayers) {
  unsetenv("MRBC_SLOW_REQUEST_MS");
  EXPECT_EQ(serve::resolve_slow_request_ms(serve::kSlowRequestMsUnset, 250), 250u);
  EXPECT_EQ(serve::resolve_slow_request_ms(42, 250), 42u);
  setenv("MRBC_SLOW_REQUEST_MS", "77", 1);
  EXPECT_EQ(serve::resolve_slow_request_ms(serve::kSlowRequestMsUnset, 250), 77u);
  EXPECT_EQ(serve::resolve_slow_request_ms(42, 250), 42u);  // explicit flag wins
  setenv("MRBC_SLOW_REQUEST_MS", "not-a-number", 1);
  EXPECT_EQ(serve::resolve_slow_request_ms(serve::kSlowRequestMsUnset, 250), 250u);
  unsetenv("MRBC_SLOW_REQUEST_MS");
}

TEST(ServeDaemon, KeepAliveServesManyRequestsOnOneConnection) {
  ServerOptions opts = small_options();
  opts.run_analytics = false;
  Server server(graph::complete(8), opts);
  server.start();
  HttpClient c(server.port(), /*keep_alive=*/true);
  for (int i = 0; i < 32; ++i) {
    const auto resp = c.get("/healthz");
    ASSERT_EQ(resp.status, 200);
  }
  server.stop();
  // All 32 requests fit in far fewer connections than requests.
  EXPECT_LT(server.counters().connections_accepted.load(), 8u);
}

}  // namespace
}  // namespace mrbc
