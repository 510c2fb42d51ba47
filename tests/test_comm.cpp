// Tests for the Gluon-like communication substrate: reduce/broadcast
// correctness against a direct computation, reduce-reset semantics, update
// tracking, and exact byte/message accounting.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <stdexcept>

#include "comm/substrate.h"
#include "engine/fault.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace mrbc::comm {
namespace {

using graph::Graph;
using graph::VertexId;
using partition::Partition;
using partition::Policy;

/// A simple "sum across proxies" label: mirrors accumulate partials; the
/// master holds the total; broadcast pushes the total back.
struct SumAccessor {
  using Value = double;
  std::vector<std::vector<double>>& labels;

  Value get(HostId h, VertexId lid) { return labels[h][lid]; }
  void reduce(HostId h, VertexId lid, Value v) { labels[h][lid] += v; }
  void set(HostId h, VertexId lid, Value v) { labels[h][lid] = v; }
  void reset(HostId h, VertexId lid) { labels[h][lid] = 0.0; }
};

struct MinAccessor {
  using Value = std::uint32_t;
  std::vector<std::vector<std::uint32_t>>& labels;

  Value get(HostId h, VertexId lid) { return labels[h][lid]; }
  void reduce(HostId h, VertexId lid, Value v) { labels[h][lid] = std::min(labels[h][lid], v); }
  void set(HostId h, VertexId lid, Value v) { labels[h][lid] = v; }
  void reset(HostId h, VertexId lid) { labels[h][lid] = graph::kInfDist; }
};

Partition make_partition(HostId hosts = 4) {
  static Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 7});
  return Partition(g, hosts, Policy::kCartesianVertexCut);
}

TEST(Substrate, SumReduceBroadcastMatchesDirectSum) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  // Every proxy contributes h + 1 (arbitrary but distinct per host).
  std::vector<double> expected(part.num_global_vertices(), 0.0);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 0.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      labels[h][l] = h + 1.0;
      expected[part.host(h).local_to_global[l]] += h + 1.0;
      sub.flag_reduce(h, l);
      if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
    }
  }
  SumAccessor acc{labels};
  sub.sync(acc);
  // All proxies must now hold the cross-host total.
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      EXPECT_DOUBLE_EQ(labels[h][l], expected[part.host(h).local_to_global[l]])
          << "host " << h << " lid " << l;
    }
  }
}

TEST(Substrate, ReduceResetPreventsDoubleCounting) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) sub.flag_reduce(h, l);
  }
  SumAccessor acc{labels};
  sub.reduce(acc);
  // Mirrors were reset; flagging and reducing again must not change masters.
  std::vector<double> after_first(part.num_global_vertices());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      if (part.host(h).is_master[l]) after_first[part.host(h).local_to_global[l]] = labels[h][l];
      sub.flag_reduce(h, l);
    }
  }
  // Clear broadcast flags produced by the second wave of reduce arrivals.
  sub.reduce(acc);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      if (part.host(h).is_master[l]) {
        EXPECT_DOUBLE_EQ(labels[h][l], after_first[part.host(h).local_to_global[l]]);
      }
    }
  }
}

TEST(Substrate, MinReduction) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<std::uint32_t>> labels(part.num_hosts());
  std::vector<std::uint32_t> expected(part.num_global_vertices(), graph::kInfDist);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), graph::kInfDist);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      const VertexId gv = part.host(h).local_to_global[l];
      const std::uint32_t value = (gv * 7 + h * 13) % 100;
      labels[h][l] = value;
      expected[gv] = std::min(expected[gv], value);
      sub.flag_reduce(h, l);
      if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
    }
  }
  MinAccessor acc{labels};
  sub.sync(acc);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      EXPECT_EQ(labels[h][l], expected[part.host(h).local_to_global[l]]);
    }
  }
}

TEST(Substrate, NoFlagsMeansNoTraffic) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 5.0);
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.sync(acc);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.values, 0u);
  EXPECT_FALSE(sub.any_pending());
  // An exchange with no flag set returns at once, per-host vectors empty.
  EXPECT_TRUE(stats.bytes_per_host.empty());
  EXPECT_TRUE(stats.msgs_per_host.empty());
}

TEST(Substrate, UpdateTrackingSendsOnlyFlaggedValues) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
  }
  // Flag exactly one mirror.
  HostId flagged_host = 0;
  VertexId flagged_lid = 0;
  bool found = false;
  for (HostId h = 0; h < part.num_hosts() && !found; ++h) {
    for (VertexId l = 0; l < part.host(h).num_proxies() && !found; ++l) {
      if (!part.host(h).is_master[l]) {
        flagged_host = h;
        flagged_lid = l;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  sub.flag_reduce(flagged_host, flagged_lid);
  SumAccessor acc{labels};
  SyncStats stats = sub.reduce(acc);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.values, 1u);
  // Metadata bitset + one double + headers; small but nonzero.
  EXPECT_GT(stats.bytes, sizeof(double));
}

TEST(Substrate, BytesPerHostTracksEgress) {
  Partition part = make_partition();
  Substrate sub(part);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 1.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) sub.flag_reduce(h, l);
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.reduce(acc);
  ASSERT_EQ(stats.bytes_per_host.size(), part.num_hosts());
  std::size_t sum = 0;
  for (std::size_t b : stats.bytes_per_host) sum += b;
  EXPECT_EQ(sum, stats.bytes);
}

TEST(Substrate, PendingFlagsAndClear) {
  Partition part = make_partition();
  Substrate sub(part);
  EXPECT_FALSE(sub.any_pending());
  sub.flag_reduce(0, 0);
  EXPECT_TRUE(sub.any_pending());
  sub.clear_flags();
  EXPECT_FALSE(sub.any_pending());
}

/// Runs one flagged sum-sync under `mode`, returning the stats and the
/// decoded label state.
std::pair<SyncStats, std::vector<std::vector<double>>> sum_sync_under(CodecMode mode) {
  Partition part = make_partition();
  Substrate sub(part);
  DeliveryOptions opts;
  opts.codec = mode;
  sub.set_delivery(opts);
  std::vector<std::vector<double>> labels(part.num_hosts());
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    labels[h].assign(part.host(h).num_proxies(), 0.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) {
      labels[h][l] = h + 1.0;  // integral: the tagged-f64 fast path
      sub.flag_reduce(h, l);
      if (part.host(h).is_master[l]) sub.flag_broadcast(h, l);
    }
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.sync(acc);
  return {std::move(stats), std::move(labels)};
}

TEST(Substrate, CodecModesDecodeIdenticallyAndOnlyBytesShrink) {
  const auto [raw_stats, raw_labels] = sum_sync_under(CodecMode::kRaw);
  for (CodecMode mode : {CodecMode::kMetadataOnly, CodecMode::kFull}) {
    const auto [stats, labels] = sum_sync_under(mode);
    // Decoded state is bit-identical; only the wire size changes.
    EXPECT_EQ(labels, raw_labels) << codec_mode_name(mode);
    EXPECT_EQ(stats.messages, raw_stats.messages);
    EXPECT_EQ(stats.values, raw_stats.values);
    // raw_bytes is the fixed-width equivalent of the encoding actually
    // chosen (the adaptive presence pick can differ per mode), so it is
    // not mode-invariant — but the wire itself must strictly shrink.
    EXPECT_GE(stats.raw_bytes, stats.bytes);
    EXPECT_LT(stats.bytes, raw_stats.bytes) << codec_mode_name(mode);
  }
}

TEST(Substrate, RawBytesAccounting) {
  // Under kRaw the denominator equals the wire: no compression happened.
  const auto [raw_stats, raw_labels] = sum_sync_under(CodecMode::kRaw);
  EXPECT_EQ(raw_stats.raw_bytes, raw_stats.bytes);
  EXPECT_GT(raw_stats.bytes, 0u);
  // kFull ships integral doubles as 1-2 byte varints: a real reduction
  // against its own fixed-width denominator.
  const auto [full_stats, full_labels] = sum_sync_under(CodecMode::kFull);
  EXPECT_LT(full_stats.bytes, full_stats.raw_bytes);
  EXPECT_LT(full_stats.bytes, raw_stats.bytes);
}

TEST(Substrate, SingleHostHasNoTrafficButClearsFlags) {
  Graph g = graph::erdos_renyi(30, 0.1, 3);
  Partition part(g, 1, Policy::kEdgeCutSrc);
  Substrate sub(part);
  std::vector<std::vector<double>> labels(1);
  labels[0].assign(part.host(0).num_proxies(), 2.0);
  for (VertexId l = 0; l < part.host(0).num_proxies(); ++l) {
    sub.flag_reduce(0, l);
    sub.flag_broadcast(0, l);
  }
  SumAccessor acc{labels};
  SyncStats stats = sub.sync(acc);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_FALSE(sub.any_pending()) << "flags must be consumed even with no peers";
}

TEST(Substrate, RestoreStateRejectsForeignShapes) {
  Partition part = make_partition();
  const HostId H = part.num_hosts();
  // Hand-written save_state bytes; `short_host` gets a reduce flag set one
  // bit short of its proxy count, and the sequence tables have `pairs`
  // entries.
  const auto crafted = [&](HostId short_host, std::size_t pairs) {
    util::SendBuffer buf;
    for (HostId h = 0; h < H; ++h) {
      const std::size_t np = part.host(h).num_proxies();
      buf.write_bitset(util::DynamicBitset(h == short_host ? np - 1 : np));
      buf.write_bitset(util::DynamicBitset(np));
    }
    buf.write_vector(std::vector<std::uint64_t>(pairs, 0));
    buf.write_vector(std::vector<std::uint64_t>(pairs, 0));
    return buf.take();
  };
  const std::size_t kPairs = static_cast<std::size_t>(H) * H;
  {
    Substrate sub(part);
    util::RecvBuffer in(crafted(H, kPairs));  // no short host: well formed
    EXPECT_NO_THROW(sub.restore_state(in));
    EXPECT_TRUE(in.exhausted());
  }
  {
    Substrate sub(part);
    util::RecvBuffer in(crafted(1, kPairs));
    EXPECT_THROW(sub.restore_state(in), std::out_of_range);
  }
  {
    Substrate sub(part);
    util::RecvBuffer in(crafted(H, (H - 1) * (H - 1)));  // a 3-host file
    EXPECT_THROW(sub.restore_state(in), std::out_of_range);
  }
  // save_state of a substrate restores into another over the same
  // partition, including one that never had a delivery configuration.
  Substrate source(part);
  source.flag_reduce(1, 0);
  util::SendBuffer saved;
  source.save_state(saved);
  Substrate target(part);
  util::RecvBuffer in(saved.take());
  EXPECT_NO_THROW(target.restore_state(in));
  EXPECT_TRUE(target.any_pending());
}

/// A per-vertex list label, for the exchange's list-accessor path: each
/// proxy holds (token, weight) entries. Reduce appends a mirror's entries
/// to its master, clears the mirror and, given a substrate, flags the
/// master for broadcast (a list accessor flags its own broadcasts);
/// broadcast overwrites every mirror with its master's list.
struct ListAccessor {
  struct Entry {
    std::uint32_t token = 0;
    double weight = 0.0;
  };
  std::vector<std::vector<std::vector<Entry>>>& lists;  // [host][lid]
  Substrate* substrate = nullptr;  ///< flags reduced masters for broadcast; null: flags none

  static void write(const std::vector<Entry>& list, CodecWriter& w) {
    w.meta_u32(static_cast<std::uint32_t>(list.size()));
    for (const Entry& e : list) {
      w.value_u32(e.token);
      w.f64(e.weight);
    }
  }
  static void read(CodecReader& r, std::vector<Entry>& out) {
    const std::uint32_t n = r.meta_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t token = r.value_u32();
      out.push_back({token, r.f64()});
    }
  }

  void serialize_reduce(HostId h, VertexId lid, CodecWriter& w) {
    write(lists[h][lid], w);
    lists[h][lid].clear();
  }
  void apply_reduce(HostId h, VertexId lid, CodecReader& r) {
    read(r, lists[h][lid]);
    if (substrate != nullptr) substrate->flag_broadcast(h, lid);
  }
  void serialize_broadcast(HostId h, VertexId lid, CodecWriter& w) { write(lists[h][lid], w); }
  void apply_broadcast(HostId h, VertexId lid, CodecReader& r) {
    lists[h][lid].clear();
    read(r, lists[h][lid]);
  }
};

/// FNV-1a over raw bytes, to pin decoded label state in one constant.
void fnv1a(std::uint64_t& hash, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) hash = (hash ^ p[i]) * 0x100000001b3ull;
}

struct WireCase {
  bool list;  ///< list accessor (else the fixed-Value SumAccessor)
  CodecMode mode;
  bool faulty;  ///< framed, reliable, with a seeded drop/duplicate/corrupt plan
  std::size_t messages, bytes, raw_bytes, values, drops, retransmits, duplicates_suppressed;
  std::uint64_t labels;  ///< FNV-1a of every host's decoded labels
};

/// One reduce + broadcast over a fixed flag pattern, returning the summed
/// stats and the hash of the decoded labels. Hosts 0 and 1 flag about two
/// thirds of their proxies (dense: bitset presence), hosts 2 and 3 about
/// one in eleven (sparse: offset-list presence).
std::pair<SyncStats, std::uint64_t> wire_sync(const WireCase& c) {
  Partition part = make_partition();
  Substrate sub(part);
  sim::FaultPlan plan;
  plan.seed = 0x5eed;
  plan.drop_rate = 0.2;
  plan.duplicate_rate = 0.2;
  plan.corrupt_rate = 0.2;
  sim::FaultInjector injector(plan, part.num_hosts());
  DeliveryOptions opts;
  opts.codec = c.mode;
  if (c.faulty) opts.faults = &injector;
  sub.set_delivery(opts);
  const HostId H = part.num_hosts();
  std::vector<std::vector<double>> sums(H);
  std::vector<std::vector<std::vector<ListAccessor::Entry>>> lists(H);
  for (HostId h = 0; h < H; ++h) {
    const auto& hg = part.host(h);
    sums[h].assign(hg.num_proxies(), 0.0);
    lists[h].resize(hg.num_proxies());
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      const VertexId gv = hg.local_to_global[l];
      // Odd tokens give non-integral weights: both tagged-f64 forms.
      sums[h][l] = gv + (h + 1) * 0.25;
      for (std::uint32_t j = 0; j < (gv + h) % 4; ++j) {
        const std::uint32_t token = gv * 16 + h * 4 + j;
        lists[h][l].push_back({token, token * 0.5});
      }
      if (h < 2 ? (gv * 7 + h) % 3 != 0 : gv % 11 == 0) sub.flag_reduce(h, l);
    }
  }
  SumAccessor sum_acc{sums};
  ListAccessor list_acc{lists, &sub};
  SyncStats stats = c.list ? sub.sync(list_acc) : sub.sync(sum_acc);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (HostId h = 0; h < H; ++h) {
    if (c.list) {
      for (const auto& list : lists[h]) {
        const std::uint64_t n = list.size();
        fnv1a(hash, &n, sizeof(n));
        for (const auto& e : list) {
          fnv1a(hash, &e.token, sizeof(e.token));
          fnv1a(hash, &e.weight, sizeof(e.weight));
        }
      }
    } else {
      fnv1a(hash, sums[h].data(), sums[h].size() * sizeof(double));
    }
  }
  return {std::move(stats), hash};
}

TEST(Substrate, ExchangeWireBytesArePinned) {
  // Stats and decoded labels of both accessor kinds, in every codec mode,
  // unframed and under reliable delivery with injected faults. The
  // constants pin the exchange's wire format (presence encoding, value
  // order, body layout) and its fault-consultation order.
  constexpr CodecMode kRaw = CodecMode::kRaw;
  constexpr CodecMode kMeta = CodecMode::kMetadataOnly;
  constexpr CodecMode kFull = CodecMode::kFull;
  const WireCase cases[] = {
      // list, mode, faulty, messages, bytes, raw_bytes, values, drops,
      // retransmits, duplicates_suppressed, labels
      {false, kRaw, false, 14, 1186, 1186, 92, 0, 0, 0, 0x3937e0953e61de56ull},
      {false, kRaw, true, 14, 1354, 1354, 92, 4, 9, 2, 0x3937e0953e61de56ull},
      {false, kMeta, false, 14, 870, 1342, 92, 0, 0, 0, 0x3937e0953e61de56ull},
      {false, kMeta, true, 14, 1038, 1510, 92, 4, 9, 2, 0x3937e0953e61de56ull},
      {false, kFull, false, 14, 847, 1342, 92, 0, 0, 0, 0x3937e0953e61de56ull},
      {false, kFull, true, 14, 1015, 1510, 92, 4, 9, 2, 0x3937e0953e61de56ull},
      {true, kRaw, false, 14, 2858, 2858, 81, 0, 0, 0, 0xd16b96bfc34bc009ull},
      {true, kRaw, true, 14, 3026, 3026, 81, 4, 9, 2, 0xd16b96bfc34bc009ull},
      {true, kMeta, false, 14, 2386, 2970, 81, 0, 0, 0, 0xd16b96bfc34bc009ull},
      {true, kMeta, true, 14, 2554, 3138, 81, 4, 9, 2, 0xd16b96bfc34bc009ull},
      {true, kFull, false, 14, 1258, 2970, 81, 0, 0, 0, 0xd16b96bfc34bc009ull},
      {true, kFull, true, 14, 1426, 3138, 81, 4, 9, 2, 0xd16b96bfc34bc009ull},
  };
  for (const WireCase& c : cases) {
    const auto [stats, labels] = wire_sync(c);
    SCOPED_TRACE(::testing::Message() << (c.list ? "list" : "fixed") << " "
                                      << codec_mode_name(c.mode) << (c.faulty ? " faulty" : ""));
    EXPECT_EQ(stats.messages, c.messages);
    EXPECT_EQ(stats.bytes, c.bytes);
    EXPECT_EQ(stats.raw_bytes, c.raw_bytes);
    EXPECT_EQ(stats.values, c.values);
    EXPECT_EQ(stats.drops, c.drops);
    EXPECT_EQ(stats.retransmits, c.retransmits);
    EXPECT_EQ(stats.duplicates_suppressed, c.duplicates_suppressed);
    EXPECT_EQ(labels, c.labels);
  }
}

/// One step of phase_script: its summed SyncStats counters and the hash of
/// every host's decoded labels after it.
struct PhaseStep {
  std::size_t messages, bytes, raw_bytes, values;
  std::uint64_t labels;
  bool operator==(const PhaseStep&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PhaseStep& s) {
  return os << "{" << s.messages << ", " << s.bytes << ", " << s.raw_bytes << ", " << s.values
            << ", 0x" << std::hex << s.labels << std::dec << "ull}";
}

/// A fixed script of syncs on one substrate, moved partway through into a
/// fresh substrate by save_state/restore_state: dense flags, sparse flags,
/// one host only, an empty phase, broadcast flags on mirrors (ignored) and
/// masters, reduce flags on masters only (promoted to broadcasts for the
/// fixed-Value accessor, ignored for the list accessor, which flags only
/// the masters it reduces into), and dense flags again. Each step updates
/// the labels it flags, so presence state leaking from one phase into a
/// later one changes what is sent.
std::vector<PhaseStep> phase_script(bool list, CodecMode mode) {
  Partition part = make_partition();
  const HostId H = part.num_hosts();
  DeliveryOptions opts;
  opts.codec = mode;
  auto sub = std::make_unique<Substrate>(part);
  sub->set_delivery(opts);
  std::vector<std::vector<double>> sums(H);
  std::vector<std::vector<std::vector<ListAccessor::Entry>>> lists(H);
  for (HostId h = 0; h < H; ++h) {
    sums[h].assign(part.host(h).num_proxies(), 0.0);
    lists[h].resize(part.host(h).num_proxies());
  }
  SumAccessor sum_acc{sums};
  ListAccessor list_acc{lists, sub.get()};
  enum Flag { kNone, kReduce, kBroadcast };
  // pick(h, is_master, gv) chooses each proxy's flag for step k.
  const auto flag = [&](std::uint32_t k, auto&& pick) {
    for (HostId h = 0; h < H; ++h) {
      const auto& hg = part.host(h);
      for (VertexId l = 0; l < hg.num_proxies(); ++l) {
        const VertexId gv = hg.local_to_global[l];
        const Flag f = pick(h, static_cast<bool>(hg.is_master[l]), gv);
        if (f == kNone) continue;
        sums[h][l] += k + gv * 0.25;
        lists[h][l].push_back({gv * 16 + k, (gv + k) * 0.5});
        if (f == kReduce) sub->flag_reduce(h, l);
        if (f == kBroadcast) sub->flag_broadcast(h, l);
      }
    }
  };
  std::vector<PhaseStep> steps;
  const auto finish = [&] {
    const SyncStats s = list ? sub->sync(list_acc) : sub->sync(sum_acc);
    EXPECT_FALSE(sub->any_pending());
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (HostId h = 0; h < H; ++h) {
      fnv1a(hash, sums[h].data(), sums[h].size() * sizeof(double));
      for (const auto& entries : lists[h]) {
        for (const auto& e : entries) {
          fnv1a(hash, &e.token, sizeof(e.token));
          fnv1a(hash, &e.weight, sizeof(e.weight));
        }
      }
    }
    steps.push_back({s.messages, s.bytes, s.raw_bytes, s.values, hash});
  };
  flag(0, [](HostId h, bool, VertexId gv) { return (gv * 7 + h) % 3 != 0 ? kReduce : kNone; });
  finish();
  flag(1, [](HostId, bool, VertexId gv) { return gv % 11 == 0 ? kReduce : kNone; });
  finish();
  flag(2, [](HostId h, bool, VertexId gv) { return h == 2 && gv % 3 == 1 ? kReduce : kNone; });
  finish();
  finish();  // nothing flagged
  flag(4, [](HostId, bool master, VertexId gv) {
    return (master ? gv % 5 == 0 : gv % 2 == 0) ? kBroadcast : kNone;
  });
  finish();
  flag(5, [](HostId, bool master, VertexId gv) { return master && gv % 4 == 1 ? kReduce : kNone; });
  util::SendBuffer saved;
  sub->save_state(saved);
  sub = std::make_unique<Substrate>(part);
  sub->set_delivery(opts);
  list_acc.substrate = sub.get();
  util::RecvBuffer in(saved.take());
  sub->restore_state(in);
  finish();
  flag(6, [](HostId h, bool, VertexId gv) { return (gv + h) % 3 != 0 ? kReduce : kNone; });
  finish();
  return steps;
}

TEST(Substrate, ExchangeAcrossPhasesIsPinned) {
  // Per-step stats and labels of phase_script for both accessor kinds, in
  // kRaw and kFull. The empty phase (step 3) sends nothing; the
  // mirror-broadcast flags of step 4 send nothing; the master reduce flags
  // of step 5 go out only as broadcasts for the fixed-Value accessor and
  // not at all for the list accessor.
  struct Case {
    bool list;
    CodecMode mode;
    std::vector<PhaseStep> steps;
  };
  // messages, bytes, raw_bytes, values, labels
  const Case cases[] = {
      {false,
       CodecMode::kRaw,
       {{16, 1496, 1496, 121, 0xd6d1b19022b0d3e0ull},
        {8, 352, 352, 14, 0x594fb8e112d42a4cull},
        {8, 428, 428, 22, 0x2c0b059ff2846da2ull},
        {0, 0, 0, 0, 0x2c0b059ff2846da2ull},
        {7, 291, 291, 12, 0xe872b8d37c3ab70eull},
        {8, 392, 392, 19, 0xac0a68d1d1982215ull},
        {16, 1496, 1496, 121, 0x57c2b454b72d2949ull}}},
      {false,
       CodecMode::kFull,
       {{16, 842, 1724, 121, 0xd6d1b19022b0d3e0ull},
        {8, 117, 304, 14, 0x594fb8e112d42a4cull},
        {8, 158, 400, 22, 0x2c0b059ff2846da2ull},
        {0, 0, 0, 0, 0x2c0b059ff2846da2ull},
        {7, 85, 263, 12, 0xe872b8d37c3ab70eull},
        {8, 167, 364, 19, 0xac0a68d1d1982215ull},
        {16, 651, 1724, 121, 0x57c2b454b72d2949ull}}},
      {true,
       CodecMode::kRaw,
       {{16, 2776, 2776, 108, 0x96dbd2651172b34cull},
        {8, 1036, 1036, 14, 0x464b199eefb0e729ull},
        {6, 774, 774, 15, 0x918b80608456f6acull},
        {0, 0, 0, 0, 0x918b80608456f6acull},
        {7, 823, 823, 12, 0x9bbf701183517496ull},
        {0, 0, 0, 0, 0x2299f6b64ae72453ull},
        {16, 10504, 10504, 108, 0xee553abe7cf5d25aull}}},
      {true,
       CodecMode::kFull,
       {{16, 1221, 2952, 108, 0x96dbd2651172b34cull},
        {8, 453, 988, 14, 0x464b199eefb0e729ull},
        {6, 312, 750, 15, 0x918b80608456f6acull},
        {0, 0, 0, 0, 0x918b80608456f6acull},
        {7, 355, 795, 12, 0x9bbf701183517496ull},
        {0, 0, 0, 0, 0x2299f6b64ae72453ull},
        {16, 4792, 10680, 108, 0xee553abe7cf5d25aull}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << (c.list ? "list " : "fixed ") << codec_mode_name(c.mode));
    const std::vector<PhaseStep> steps = phase_script(c.list, c.mode);
    EXPECT_EQ(steps, c.steps);
  }
}

TEST(Substrate, ListAccessorBroadcastsOnlyWhatItFlags) {
  // The same reduce flags, reduced with and without the accessor flagging
  // the masters it reduces into: without, the reduce phase promotes
  // nothing and the broadcast phase sends nothing. A fixed-Value accessor's
  // reduced masters are promoted either way.
  Partition part = make_partition();
  const HostId H = part.num_hosts();
  for (const bool flags_own : {true, false}) {
    Substrate sub(part);
    std::vector<std::vector<std::vector<ListAccessor::Entry>>> lists(H);
    for (HostId h = 0; h < H; ++h) {
      const auto& hg = part.host(h);
      lists[h].resize(hg.num_proxies());
      for (VertexId l = 0; l < hg.num_proxies(); ++l) {
        lists[h][l].push_back({hg.local_to_global[l], 1.0});
        sub.flag_reduce(h, l);
      }
    }
    ListAccessor acc{lists, flags_own ? &sub : nullptr};
    const SyncStats reduced = sub.reduce(acc);
    EXPECT_GT(reduced.messages, 0u);
    EXPECT_EQ(sub.any_pending(), flags_own);
    const SyncStats broadcast = sub.broadcast(acc);
    EXPECT_EQ(broadcast.messages > 0, flags_own);
    EXPECT_EQ(broadcast.values > 0, flags_own);
    EXPECT_FALSE(sub.any_pending());
  }
  Substrate sub(part);
  std::vector<std::vector<double>> sums(H);
  for (HostId h = 0; h < H; ++h) {
    sums[h].assign(part.host(h).num_proxies(), 1.0);
    for (VertexId l = 0; l < part.host(h).num_proxies(); ++l) sub.flag_reduce(h, l);
  }
  SumAccessor sum_acc{sums};
  sub.reduce(sum_acc);
  EXPECT_TRUE(sub.any_pending());
  EXPECT_GT(sub.broadcast(sum_acc).messages, 0u);
}

/// The test accessors with an operator that, by declaration, reads
/// broadcasts only through the receiving proxy's local in-edges.
struct InEdgeSumAccessor : SumAccessor {
  static constexpr bool kReadsBroadcastsThroughInEdges = true;
};
struct InEdgeListAccessor : ListAccessor {
  static constexpr bool kReadsBroadcastsThroughInEdges = true;
};

/// Broadcasts every master of `part` through an `Acc` and checks which
/// mirrors it reached: with the in-edge scope, exactly the mirrors with a
/// local in-edge; without it, every mirror. One message goes out per
/// exchange list holding such a mirror, and none on any other list.
template <typename Acc, bool kScoped>
SyncStats expect_broadcast_reach(const Partition& part, const std::string& label) {
  constexpr bool kFixed = requires { typename Acc::Value; };
  const HostId H = part.num_hosts();
  Substrate sub(part);
  std::vector<std::vector<double>> sums(H);
  std::vector<std::vector<std::vector<ListAccessor::Entry>>> lists(H);
  for (HostId h = 0; h < H; ++h) {
    const auto& hg = part.host(h);
    sums[h].assign(hg.num_proxies(), -1.0);
    lists[h].resize(hg.num_proxies());
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      if (!hg.is_master[l]) continue;
      sums[h][l] = hg.local_to_global[l] + 1.0;
      lists[h][l].push_back({hg.local_to_global[l], 1.0});
      sub.flag_broadcast(h, l);
    }
  }
  SyncStats stats;
  if constexpr (kFixed) {
    Acc acc{{sums}};
    stats = sub.broadcast(acc);
  } else {
    Acc acc{{lists}};
    stats = sub.broadcast(acc);
  }
  std::size_t lists_sent = 0;
  std::size_t values = 0;
  for (HostId mh = 0; mh < H; ++mh) {
    for (HostId oh = 0; oh < H; ++oh) {
      bool sent = false;
      for (VertexId l : part.mirror_lids(mh, oh)) {
        const bool reads = !kScoped || part.host(mh).local.in_degree(l) != 0;
        const VertexId gv = part.host(mh).local_to_global[l];
        const bool reached = kFixed ? sums[mh][l] == gv + 1.0 : lists[mh][l].size() == 1;
        EXPECT_EQ(reached, reads) << label << " host " << mh << " lid " << l;
        sent = sent || reads;
        values += reads ? 1 : 0;
      }
      lists_sent += sent ? 1 : 0;
    }
  }
  EXPECT_EQ(stats.messages, lists_sent) << label;
  EXPECT_EQ(stats.values, values) << label;
  return stats;
}

TEST(Substrate, InEdgeScopedBroadcastReachesExactlyMirrorsWithInEdges) {
  // Under every policy and with both accessor kinds. An incoming edge-cut
  // leaves only mirrors without in-edges, so a scoped broadcast sends no
  // message at all; an outgoing edge-cut leaves only mirrors with one, so
  // scoping prunes nothing.
  static const Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 7});
  for (const Policy policy : {Policy::kCartesianVertexCut, Policy::kEdgeCutSrc,
                              Policy::kEdgeCutDst, Policy::kGeneralVertexCut,
                              Policy::kRandomEdge}) {
    const Partition part(g, 4, policy);
    const std::string name = partition::to_string(policy);
    const SyncStats all = expect_broadcast_reach<SumAccessor, false>(part, name + " fixed");
    const SyncStats scoped =
        expect_broadcast_reach<InEdgeSumAccessor, true>(part, name + " fixed scoped");
    expect_broadcast_reach<ListAccessor, false>(part, name + " list");
    expect_broadcast_reach<InEdgeListAccessor, true>(part, name + " list scoped");
    EXPECT_GT(all.messages, 0u) << name;
    if (policy == Policy::kEdgeCutDst) {
      EXPECT_EQ(scoped.messages, 0u);
    }
    if (policy == Policy::kEdgeCutSrc) {
      EXPECT_EQ(scoped.values, all.values);
    }
  }
}

}  // namespace
}  // namespace mrbc::comm
