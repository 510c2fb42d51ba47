// Permanent-failure recovery suite: failure-detector thresholds (stragglers
// stay suspect, missing heartbeats become deaths), deterministic ownership
// handoff, bit-identity of death schedules against fault-free runs, durable
// cold restarts for MRBC / SBBC / IncrementalBc, and the snapshot
// container's corruption hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/sbbc.h"
#include "comm/codec.h"
#include "comm/substrate.h"
#include "core/mrbc.h"
#include "core/mrbc_state.h"
#include "engine/cluster.h"
#include "engine/fault.h"
#include "engine/network_model.h"
#include "engine/recovery.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "partition/policies.h"
#include "stream/edge_batch.h"
#include "stream/incremental_bc.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace mrbc {
namespace {

using graph::Graph;
using graph::VertexId;
using partition::HostId;

/// Bitwise score comparison: recovery must be *exact*, not merely within
/// floating-point tolerance, so the usual expect_bc_equal is too weak here.
void expect_bits_equal(const core::BcScores& expected, const core::BcScores& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    std::uint64_t eb = 0, ab = 0;
    std::memcpy(&eb, &expected[v], sizeof(eb));
    std::memcpy(&ab, &actual[v], sizeof(ab));
    ASSERT_EQ(eb, ab) << label << " vertex=" << v << " expected=" << expected[v]
                      << " actual=" << actual[v];
  }
}

/// Fresh per-test scratch directory under the system temp dir.
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("mrbc_recovery_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while (f != nullptr && (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  if (f != nullptr) std::fclose(f);
  return data;
}

void write_file_bytes(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!data.empty()) std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

// ---- Failure detector -------------------------------------------------------

TEST(FailureDetector, StragglerStaysSuspectAndRecovers) {
  sim::NetworkModel net;
  sim::FailureDetector det(4, net);  // kSuspectAfter = 1, kDeadAfter = 3

  // Prime the EWMA baseline with on-time rounds.
  for (int r = 0; r < 5; ++r) {
    for (HostId h = 0; h < 4; ++h) det.observe(h, 1e-5);
    det.finish_round();
  }
  ASSERT_EQ(det.status(0), sim::HostStatus::kAlive);

  // Host 0 starts heartbeating far past any deadline: it is a straggler,
  // marked suspect and granted growing grace, but NEVER declared dead —
  // the heartbeat proves it is up.
  const double base_deadline = det.deadline_seconds();
  const std::size_t late_rounds = 20;
  for (std::size_t r = 0; r < late_rounds; ++r) {
    det.observe(0, 1e9);
    for (HostId h = 1; h < 4; ++h) det.observe(h, 1e-5);
    det.finish_round();
    EXPECT_EQ(det.status(0), sim::HostStatus::kSuspect) << "round " << r;
    EXPECT_FALSE(det.dead(0));
    EXPECT_EQ(det.consecutive_misses(0), 0u);
  }
  EXPECT_GE(det.suspect_observations(), late_rounds);
  // Suspects get exponential backoff grace over the base deadline.
  EXPECT_GT(det.deadline_seconds(0), det.deadline_seconds(1));
  EXPECT_GE(det.deadline_seconds(1), base_deadline);
  // One slow host must not inflate the shared baseline (late heartbeats are
  // excluded from the EWMA).
  EXPECT_LT(det.deadline_seconds(), 1e3);

  // On-time heartbeats decay the suspicion back to alive.
  for (std::size_t r = 0; r < 2 * late_rounds + 2; ++r) {
    for (HostId h = 0; h < 4; ++h) det.observe(h, 1e-5);
    det.finish_round();
  }
  EXPECT_EQ(det.status(0), sim::HostStatus::kAlive);
}

TEST(FailureDetector, MissingHeartbeatsBecomeDeath) {
  ASSERT_EQ(sim::FailureDetector::kDeadAfter, 3u);
  sim::FailureDetector det(3, sim::NetworkModel{});

  // Two misses: suspect, not dead; a heartbeat resets the count.
  det.observe_missing(1);
  det.finish_round();
  det.observe_missing(1);
  det.finish_round();
  EXPECT_EQ(det.status(1), sim::HostStatus::kSuspect);
  EXPECT_FALSE(det.dead(1));
  EXPECT_EQ(det.consecutive_misses(1), 2u);
  det.observe(1, 1e-5);
  det.finish_round();
  EXPECT_EQ(det.consecutive_misses(1), 0u);
  EXPECT_FALSE(det.dead(1));

  // kDeadAfter consecutive misses: permanently dead.
  for (int r = 0; r < 3; ++r) {
    det.observe_missing(1);
    det.finish_round();
  }
  EXPECT_EQ(det.status(1), sim::HostStatus::kDead);
  EXPECT_TRUE(det.dead(1));
  // Death is terminal — a late heartbeat cannot resurrect the host.
  det.observe(1, 1e-5);
  det.finish_round();
  EXPECT_TRUE(det.dead(1));
  // Other hosts are unaffected.
  EXPECT_EQ(det.status(0), sim::HostStatus::kAlive);
  EXPECT_EQ(det.status(2), sim::HostStatus::kAlive);
}

// ---- Ownership handoff ------------------------------------------------------

TEST(Handoff, OwnerIsDeterministicAndMinimallyDisruptive) {
  std::vector<HostId> alive = {0, 1, 2, 3, 4, 5, 6, 7};
  for (HostId logical = 0; logical < 32; ++logical) {
    const HostId owner = partition::handoff_owner(logical, alive);
    EXPECT_EQ(owner, partition::handoff_owner(logical, alive)) << "logical " << logical;
    // Rendezvous property: removing any candidate that did NOT win leaves
    // the owner unchanged — repeated deaths never reshuffle healthy shards.
    for (HostId victim : alive) {
      if (victim == owner) continue;
      std::vector<HostId> survivors;
      for (HostId h : alive) {
        if (h != victim) survivors.push_back(h);
      }
      EXPECT_EQ(partition::handoff_owner(logical, survivors), owner)
          << "logical " << logical << " victim " << victim;
    }
  }
}

TEST(Membership, DeclareDeadRelocatesShardsAndSerializes) {
  sim::Membership m(4);
  EXPECT_EQ(m.num_logical(), 4u);
  EXPECT_EQ(m.num_alive(), 4u);
  EXPECT_FALSE(m.degraded());
  for (HostId h = 0; h < 4; ++h) EXPECT_EQ(m.physical(h), h);

  const auto moved = m.declare_dead(2);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], 2u);
  EXPECT_FALSE(m.is_alive(2));
  EXPECT_EQ(m.num_alive(), 3u);
  EXPECT_TRUE(m.degraded());
  const HostId adopter = m.physical(2);
  EXPECT_NE(adopter, 2u);
  EXPECT_TRUE(m.is_alive(adopter));
  // A death scheduled for the already-dead host lands on its adopter.
  EXPECT_EQ(m.resolve_alive(2), adopter);
  // Double declaration is a no-op.
  EXPECT_TRUE(m.declare_dead(2).empty());

  // Killing the adopter relocates both its own shard and the adopted one.
  const auto moved2 = m.declare_dead(adopter);
  EXPECT_EQ(moved2.size(), 2u);
  EXPECT_EQ(m.num_alive(), 2u);
  for (HostId logical = 0; logical < 4; ++logical) {
    EXPECT_TRUE(m.is_alive(m.physical(logical))) << "logical " << logical;
  }

  // Serialization round-trip preserves the degraded placement exactly.
  util::SendBuffer buf;
  m.save(buf);
  const std::vector<std::uint8_t> bytes = buf.take();
  util::RecvBuffer rb(bytes.data(), bytes.size());
  sim::Membership copy(4);
  copy.restore(rb);
  EXPECT_EQ(copy.logical_to_physical(), m.logical_to_physical());
  EXPECT_EQ(copy.num_alive(), m.num_alive());
  EXPECT_EQ(copy.alive_hosts(), m.alive_hosts());

  // The run can never lose its final host.
  const auto survivors = m.alive_hosts();
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_FALSE(m.declare_dead(survivors[0]).empty());
  EXPECT_TRUE(m.declare_dead(survivors[1]).empty());
  EXPECT_EQ(m.num_alive(), 1u);
}

// ---- Death schedules vs fault-free ------------------------------------------

sim::FaultPlan death_plan(std::initializer_list<sim::FaultEvent> events) {
  sim::FaultPlan plan;
  plan.seed = 77;
  plan.events = events;
  return plan;
}

TEST(HostDeath, MrbcBitIdenticalToFaultFree) {
  const Graph g = graph::erdos_renyi(60, 0.08, 9);
  const auto sources = graph::sample_sources(g, 12, 5, /*contiguous=*/false);

  core::MrbcOptions opts;
  opts.num_hosts = 6;
  opts.batch_size = 4;
  opts.cluster.checkpoint_interval = 3;
  const auto golden = core::mrbc_bc(g, sources, opts);

  // Three deaths, the third aimed at an already-dead host (it must resolve
  // onto the adopter of that host's shard, deterministically).
  const sim::FaultPlan plan = death_plan({{sim::FaultKind::kHostDeath, 2, 1},
                                          {sim::FaultKind::kHostDeath, 5, 4},
                                          {sim::FaultKind::kHostDeath, 7, 1}});
  sim::FaultInjector injector(plan, opts.num_hosts);
  sim::Membership membership(opts.num_hosts);
  core::MrbcOptions fopts = opts;
  fopts.cluster.fault = &injector;
  fopts.cluster.membership = &membership;
  const auto run = core::mrbc_bc(g, sources, fopts);

  EXPECT_EQ(run.anomalies, 0u);
  expect_bits_equal(golden.result.bc, run.result.bc, "mrbc deaths");
  EXPECT_EQ(run.forward.rounds, golden.forward.rounds);
  EXPECT_EQ(run.backward.rounds, golden.backward.rounds);
  EXPECT_EQ(run.num_batches, golden.num_batches);

  const sim::RunStats total = run.total();
  EXPECT_EQ(total.faults.deaths, 3u);
  EXPECT_GE(total.faults.handoffs, 3u);
  EXPECT_GT(total.faults.handoff_bytes, 0u);
  EXPECT_GT(total.faults.detection_rounds, 0u);
  EXPECT_GT(total.faults.recovery_rounds, 0u);
  EXPECT_GT(total.faults.detection_seconds, 0.0);
  EXPECT_LT(total.availability(), 1.0);
  EXPECT_TRUE(membership.degraded());
  EXPECT_EQ(membership.num_alive(), 3u);
  for (HostId logical = 0; logical < opts.num_hosts; ++logical) {
    EXPECT_TRUE(membership.is_alive(membership.physical(logical)));
  }
}

TEST(HostDeath, HandoffDeterministicAcrossThreadCounts) {
  const Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 21});
  const auto sources = graph::sample_sources(g, 10, 3, /*contiguous=*/false);
  const sim::FaultPlan plan = death_plan({{sim::FaultKind::kHostDeath, 3, 0},
                                          {sim::FaultKind::kHostDeath, 6, 3}});

  auto run_with_threads = [&](std::size_t threads, std::vector<HostId>* placement) {
    core::MrbcOptions opts;
    opts.num_hosts = 5;
    opts.batch_size = 4;
    opts.cluster.checkpoint_interval = 2;
    opts.cluster.threads = threads;
    opts.cluster.parallel_hosts = threads > 1;
    sim::FaultInjector injector(plan, opts.num_hosts);
    sim::Membership membership(opts.num_hosts);
    opts.cluster.fault = &injector;
    opts.cluster.membership = &membership;
    auto run = core::mrbc_bc(g, sources, opts);
    *placement = membership.logical_to_physical();
    return run;
  };

  std::vector<HostId> placement1, placement4;
  const auto run1 = run_with_threads(1, &placement1);
  const auto run4 = run_with_threads(4, &placement4);

  EXPECT_EQ(placement1, placement4);
  expect_bits_equal(run1.result.bc, run4.result.bc, "threads 1 vs 4");
  EXPECT_EQ(run1.forward.rounds, run4.forward.rounds);
  EXPECT_EQ(run1.backward.rounds, run4.backward.rounds);
  EXPECT_EQ(run1.total().messages, run4.total().messages);
  EXPECT_EQ(run1.total().bytes, run4.total().bytes);
  EXPECT_EQ(run1.total().faults.deaths, run4.total().faults.deaths);
  EXPECT_EQ(run1.total().faults.handoffs, run4.total().faults.handoffs);
  EXPECT_EQ(run1.total().faults.detection_rounds, run4.total().faults.detection_rounds);
  EXPECT_EQ(run1.total().faults.recovery_rounds, run4.total().faults.recovery_rounds);
}

TEST(HostDeath, SbbcBitIdenticalToFaultFree) {
  const Graph g = graph::erdos_renyi(50, 0.08, 31);
  const auto sources = graph::sample_sources(g, 8, 7, /*contiguous=*/false);

  baselines::SbbcOptions opts;
  opts.num_hosts = 4;
  opts.cluster.checkpoint_interval = 2;
  const auto golden = baselines::sbbc_bc(g, sources, opts);

  const sim::FaultPlan plan = death_plan({{sim::FaultKind::kHostDeath, 2, 2},
                                          {sim::FaultKind::kHostDeath, 4, 0}});
  sim::FaultInjector injector(plan, opts.num_hosts);
  sim::Membership membership(opts.num_hosts);
  baselines::SbbcOptions fopts = opts;
  fopts.cluster.fault = &injector;
  fopts.cluster.membership = &membership;
  const auto run = baselines::sbbc_bc(g, sources, fopts);

  expect_bits_equal(golden.result.bc, run.result.bc, "sbbc deaths");
  EXPECT_EQ(run.forward.rounds, golden.forward.rounds);
  EXPECT_EQ(run.backward.rounds, golden.backward.rounds);
  EXPECT_EQ(run.total().faults.deaths, 2u);
  EXPECT_TRUE(membership.degraded());
}

// ---- Durable cold restarts --------------------------------------------------

TEST(DurableRestart, MrbcColdRestartBitIdentity) {
  const std::string dir = scratch_dir("mrbc_cold");
  const Graph g = graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 3});
  const auto sources = graph::sample_sources(g, 10, 11, /*contiguous=*/false);

  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 4;
  opts.collect_tables = true;
  opts.cluster.checkpoint_interval = 2;
  const auto golden = core::mrbc_bc(g, sources, opts);

  // Kill the process right after the second durable snapshot write, then
  // keep cold-restarting (fresh driver call each time — nothing survives
  // but the file) until the run completes. Re-interrupting the resumed
  // legs exercises the saved-prefix merging.
  core::MrbcOptions dopts = opts;
  dopts.checkpoint_dir = dir;
  dopts.halt_after_checkpoints = 2;
  const auto first = core::mrbc_bc(g, sources, dopts);
  ASSERT_TRUE(first.halted);

  core::MrbcOptions ropts = opts;
  ropts.checkpoint_dir = dir;
  ropts.resume = true;
  ropts.halt_after_checkpoints = 3;
  core::MrbcRun final_run;
  int restarts = 0;
  for (;;) {
    final_run = core::mrbc_bc(g, sources, ropts);
    ++restarts;
    if (!final_run.halted) break;
    ASSERT_LT(restarts, 200) << "resume chain failed to make progress";
  }
  EXPECT_GE(restarts, 1);

  // Every deterministic quantity matches the uninterrupted run exactly.
  expect_bits_equal(golden.result.bc, final_run.result.bc, "mrbc cold restart");
  testing::expect_tables_equal(golden.result, final_run.result, "mrbc cold restart tables");
  EXPECT_EQ(final_run.forward.rounds, golden.forward.rounds);
  EXPECT_EQ(final_run.backward.rounds, golden.backward.rounds);
  EXPECT_EQ(final_run.total().messages, golden.total().messages);
  EXPECT_EQ(final_run.total().bytes, golden.total().bytes);
  EXPECT_EQ(final_run.total().values, golden.total().values);
  EXPECT_EQ(final_run.num_batches, golden.num_batches);
  EXPECT_EQ(final_run.anomalies, 0u);
}

/// Re-frames the snapshot at `path` section by section through a fresh
/// writer, after `edit(id, payload)` has changed the payloads: the result is
/// CRC-valid, so only the restore code's own checks can reject it.
void reframe(const std::string& path,
             const std::function<void(std::uint32_t, std::vector<std::uint8_t>&)>& edit) {
  const sim::SnapshotReader reader = sim::SnapshotReader::from_file(path);
  sim::SnapshotWriter w;
  for (std::uint32_t id = 1; id <= 6; ++id) {
    if (!reader.has(id)) continue;
    std::vector<std::uint8_t> bytes = reader.section(id);
    edit(id, bytes);
    w.section(id).write_raw(bytes.data(), bytes.size());
  }
  w.write_file(path);
}

/// Cuts the write_vector-framed score vector at `offset` to its first
/// `keep` entries.
void shorten_scores(std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint64_t keep) {
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + offset, sizeof(count));
  std::memcpy(bytes.data() + offset, &keep, sizeof(keep));
  const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(offset + sizeof(count));
  bytes.erase(first + static_cast<std::ptrdiff_t>(keep * sizeof(double)),
              first + static_cast<std::ptrdiff_t>(count * sizeof(double)));
}

TEST(DurableRestart, MrbcResumeRejectsOlderSlotLayout) {
  // A snapshot written before the packed slot plane carries a fingerprint
  // without the layout revision; resuming must refuse it instead of
  // misreading its 24-byte slots.
  const std::string dir = scratch_dir("mrbc_layout");
  const Graph g = graph::erdos_renyi(40, 0.1, 13);
  const auto sources = graph::sample_sources(g, 6, 1, /*contiguous=*/false);
  core::MrbcOptions opts;
  opts.num_hosts = 3;
  opts.batch_size = 3;
  opts.checkpoint_dir = dir;
  opts.halt_after_checkpoints = 1;
  ASSERT_TRUE(core::mrbc_bc(g, sources, opts).halted);
  const std::string path = dir + "/mrbc.ckpt";

  // The fingerprint formula of the padded layout: the configuration alone.
  util::SendBuffer config;
  config.write<std::uint64_t>(g.num_vertices());
  config.write<std::uint32_t>(opts.num_hosts);
  config.write<std::uint32_t>(opts.batch_size);
  config.write<std::uint8_t>(opts.delayed_sync ? 1 : 0);
  config.write<std::uint8_t>(opts.collect_tables ? 1 : 0);
  config.write<std::uint8_t>(static_cast<std::uint8_t>(opts.cluster.codec));
  config.write<std::uint64_t>(opts.cluster.checkpoint_interval);
  config.write_vector(sources);
  const std::uint32_t old_fingerprint = util::crc32(config.bytes());

  core::MrbcOptions ropts = opts;
  ropts.halt_after_checkpoints = 1;
  ropts.resume = true;
  reframe(path, [](std::uint32_t, std::vector<std::uint8_t>&) {});
  EXPECT_NO_THROW(core::mrbc_bc(g, sources, ropts));  // re-framing alone keeps it resumable
  reframe(path, [&](std::uint32_t id, std::vector<std::uint8_t>& bytes) {
    if (id == 1) std::memcpy(bytes.data(), &old_fingerprint, sizeof(old_fingerprint));
  });
  EXPECT_THROW(core::mrbc_bc(g, sources, ropts), sim::SnapshotError);
}

TEST(DurableRestart, MrbcResumeRejectsHugeWorklist) {
  // A CRC-valid loop snapshot whose host-0 worklist declares 2^40 entries
  // must be refused by the bounded reader before anything is allocated,
  // as a SnapshotError naming the loop section, before any round runs.
  const std::string dir = scratch_dir("mrbc_worklist");
  const Graph g = graph::erdos_renyi(40, 0.1, 13);
  const auto sources = graph::sample_sources(g, 6, 1, /*contiguous=*/false);
  core::MrbcOptions opts;
  opts.num_hosts = 3;
  opts.batch_size = 3;
  opts.checkpoint_dir = dir;
  opts.halt_after_checkpoints = 1;
  ASSERT_TRUE(core::mrbc_bc(g, sources, opts).halted);
  const partition::Partition part(g, opts.num_hosts, opts.policy);
  constexpr std::uint32_t kLoopSection = 4;
  bool edited = false;
  reframe(dir + "/mrbc.ckpt", [&](std::uint32_t id, std::vector<std::uint8_t>& bytes) {
    if (id != kLoopSection) return;
    // Replay the section's own readers up to host 0's worklist count.
    util::RecvBuffer loop(bytes.data(), bytes.size());
    loop.read<std::uint64_t>();  // round
    loop.read<std::uint8_t>();   // any_active
    loop.read<std::uint64_t>();  // snapshot length
    comm::Substrate(part).restore_state(loop);
    core::HostState(part.host(0).is_master, opts.batch_size).restore(loop);
    loop.read_vector<std::uint8_t>();  // per-slot status flags
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + (loop.size() - loop.remaining()), &huge, sizeof(huge));
    edited = true;
  });
  ASSERT_TRUE(edited) << "the first durable write carries a loop snapshot";
  core::MrbcOptions ropts = opts;
  ropts.resume = true;
  try {
    core::mrbc_bc(g, sources, ropts);
    ADD_FAILURE() << "resume accepted a 2^40-entry worklist";
  } catch (const sim::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("section 4 (loop)"), std::string::npos) << e.what();
  }
}

/// Offsets of host 0's state inside an MRBC loop section, found by
/// replaying the section's own readers: the write_vector-framed dirty list
/// of lid 0, the slot flags, and the worklist.
struct LoopOffsets {
  std::size_t dirty0 = 0;
  std::size_t flags = 0;
  std::size_t worklist = 0;
};

LoopOffsets loop_offsets(const std::vector<std::uint8_t>& bytes,
                         const partition::Partition& part, std::uint32_t k) {
  util::RecvBuffer loop(bytes.data(), bytes.size());
  auto at = [&] { return loop.size() - loop.remaining(); };
  loop.read<std::uint64_t>();  // round
  loop.read<std::uint8_t>();   // any_active
  loop.read<std::uint64_t>();  // snapshot length
  comm::Substrate(part).restore_state(loop);
  // Host 0's labels: k (u32), proxy count (u32), slot count (u64), the
  // packed slots, then one dirty list per lid.
  LoopOffsets o;
  std::uint64_t num_slots = 0;
  std::memcpy(&num_slots, bytes.data() + at() + 2 * sizeof(std::uint32_t), sizeof(num_slots));
  o.dirty0 = at() + 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
             num_slots * core::HostState::kPackedSlotBytes;
  core::HostState(part.host(0).is_master, k).restore(loop);
  o.flags = at();
  loop.read_vector<std::uint8_t>();
  o.worklist = at();
  return o;
}

/// Replaces the elements of the write_vector-framed vector at `offset` of
/// an MRBC loop section by `elems` (raw bytes, `elem_size` per element) and
/// keeps the framed loop snapshot's length prefix consistent.
void replace_vector(std::vector<std::uint8_t>& bytes, std::size_t offset, std::size_t elem_size,
                    const std::vector<std::uint8_t>& elems) {
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + offset, sizeof(count));
  const std::uint64_t new_count = elems.size() / elem_size;
  std::memcpy(bytes.data() + offset, &new_count, sizeof(new_count));
  const auto body = static_cast<std::ptrdiff_t>(offset + sizeof(count));
  bytes.erase(bytes.begin() + body,
              bytes.begin() + body + static_cast<std::ptrdiff_t>(count * elem_size));
  bytes.insert(bytes.begin() + body, elems.begin(), elems.end());
  constexpr std::size_t kSnapshotLength = sizeof(std::uint64_t) + sizeof(std::uint8_t);
  std::uint64_t length = 0;
  std::memcpy(&length, bytes.data() + kSnapshotLength, sizeof(length));
  length = length - count * elem_size + elems.size();
  std::memcpy(bytes.data() + kSnapshotLength, &length, sizeof(length));
}

template <typename T>
std::vector<std::uint8_t> raw_bytes(const T& value) {
  std::vector<std::uint8_t> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

TEST(DurableRestart, MrbcResumeRejectsOutOfRangeLoopIndices) {
  // CRC-valid loop snapshots whose host-0 state would index past the
  // batch's labels once a round runs: a slot-flag vector one byte short of
  // np * k, a dirty source index equal to k, and a worklist lid equal to
  // np. Each must be refused as a SnapshotError naming the loop section
  // before any round runs.
  const Graph g = graph::erdos_renyi(40, 0.1, 13);
  const auto sources = graph::sample_sources(g, 6, 1, /*contiguous=*/false);
  core::MrbcOptions opts;
  opts.num_hosts = 3;
  opts.batch_size = 3;
  opts.halt_after_checkpoints = 1;
  const partition::Partition part(g, opts.num_hosts, opts.policy);
  const std::uint32_t k = opts.batch_size;
  const VertexId np = part.host(0).num_proxies();
  struct Craft {
    const char* name;
    const char* reason;  ///< expected in the error message
    std::function<void(std::vector<std::uint8_t>&, const LoopOffsets&)> edit;
  };
  const Craft crafts[] = {
      {"short_flags", "slot flags",
       [&](std::vector<std::uint8_t>& bytes, const LoopOffsets& o) {
         const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(o.flags + 8);
         const std::vector<std::uint8_t> shorter(first, first + np * k - 1);
         replace_vector(bytes, o.flags, 1, shorter);
       }},
      {"dirty_source_k", "dirty source",
       [&](std::vector<std::uint8_t>& bytes, const LoopOffsets& o) {
         replace_vector(bytes, o.dirty0, sizeof(std::uint32_t), raw_bytes(k));
       }},
      {"worklist_lid_np", "drain entry",
       [&](std::vector<std::uint8_t>& bytes, const LoopOffsets& o) {
         const std::uint32_t entry[2] = {np, 0};  // (lid, sidx)
         replace_vector(bytes, o.worklist, sizeof(entry), raw_bytes(entry));
       }},
  };
  constexpr std::uint32_t kLoopSection = 4;
  for (const auto& [name, reason, edit] : crafts) {
    const std::string dir = scratch_dir(std::string("mrbc_loop_") + name);
    core::MrbcOptions wopts = opts;
    wopts.checkpoint_dir = dir;
    ASSERT_TRUE(core::mrbc_bc(g, sources, wopts).halted) << name;
    bool edited = false;
    reframe(dir + "/mrbc.ckpt", [&](std::uint32_t id, std::vector<std::uint8_t>& bytes) {
      if (id != kLoopSection) return;
      edit(bytes, loop_offsets(bytes, part, k));
      edited = true;
    });
    ASSERT_TRUE(edited) << name;
    core::MrbcOptions ropts = wopts;
    ropts.resume = true;
    ropts.halt_after_checkpoints = 0;
    try {
      core::mrbc_bc(g, sources, ropts);
      ADD_FAILURE() << name << ": resume accepted the crafted loop section";
    } catch (const sim::SnapshotError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("section 4 (loop)"), std::string::npos) << name << ": " << what;
      EXPECT_NE(what.find(reason), std::string::npos) << name << ": " << what;
    }
  }
}

// ---- Resume rejection, for both durable engines -----------------------------

struct MrbcEngine {
  using Options = core::MrbcOptions;
  static constexpr const char* kFile = "mrbc.ckpt";
  static Options options() {
    Options o;
    o.num_hosts = 3;
    o.batch_size = 3;
    return o;
  }
  /// Different batching is a different execution.
  static void change_configuration(Options& o) { o.batch_size = 4; }
  static auto run(const Graph& g, const std::vector<VertexId>& s, const Options& o) {
    return core::mrbc_bc(g, s, o);
  }
  /// Advances an accum-section reader to the dist table's row count.
  static void skip_to_tables(util::RecvBuffer& accum) {
    accum.read_vector<double>();
    accum.read_vector<VertexId>();
  }
};

struct SbbcEngine {
  using Options = baselines::SbbcOptions;
  static constexpr const char* kFile = "sbbc.ckpt";
  static Options options() {
    Options o;
    o.num_hosts = 3;
    return o;
  }
  /// Another wire codec is another byte count.
  static void change_configuration(Options& o) { o.cluster.codec = comm::CodecMode::kFull; }
  static auto run(const Graph& g, const std::vector<VertexId>& s, const Options& o) {
    return baselines::sbbc_bc(g, s, o);
  }
  static void skip_to_tables(util::RecvBuffer& accum) { accum.read_vector<double>(); }
};

template <typename Engine>
class DurableResume : public ::testing::Test {
 protected:
  using Options = typename Engine::Options;

  DurableResume()
      : dir_(scratch_dir(std::string("reject_") + Engine::kFile)),
        g_(graph::erdos_renyi(40, 0.1, 13)),
        sources_(graph::sample_sources(g_, 6, 1, /*contiguous=*/false)) {}

  /// Runs until the first durable write, leaving a mid-run file behind.
  void write_halted_file() {
    Options o = Engine::options();
    o.checkpoint_dir = dir_;
    o.halt_after_checkpoints = 1;
    ASSERT_TRUE(Engine::run(g_, sources_, o).halted);
  }

  Options resume_options() const {
    Options o = Engine::options();
    o.checkpoint_dir = dir_;
    o.resume = true;
    return o;
  }

  /// Re-frames the file with its accum section edited; it must no longer
  /// resume.
  void expect_edited_accum_rejected(
      const std::function<void(std::vector<std::uint8_t>&)>& edit) {
    write_halted_file();
    reframe(dir_ + "/" + Engine::kFile, [&](std::uint32_t id, std::vector<std::uint8_t>& bytes) {
      if (id == 2) edit(bytes);
    });
    EXPECT_THROW(Engine::run(g_, sources_, resume_options()), sim::SnapshotError);
  }

  std::string dir_;
  Graph g_;
  std::vector<VertexId> sources_;
};

struct EngineName {
  template <typename Engine>
  static std::string GetName(int) {
    return std::is_same_v<Engine, MrbcEngine> ? "Mrbc" : "Sbbc";
  }
};

using DurableEngines = ::testing::Types<MrbcEngine, SbbcEngine>;
TYPED_TEST_SUITE(DurableResume, DurableEngines, EngineName);

TYPED_TEST(DurableResume, RejectsWrongConfiguration) {
  this->write_halted_file();

  auto wrong = this->resume_options();
  TypeParam::change_configuration(wrong);
  EXPECT_THROW(TypeParam::run(this->g_, this->sources_, wrong), sim::SnapshotError);

  // So is a different source set.
  const auto other = graph::sample_sources(this->g_, 5, 2, /*contiguous=*/false);
  EXPECT_THROW(TypeParam::run(this->g_, other, this->resume_options()), sim::SnapshotError);

  // Resuming with no snapshot on disk fails with a clear error.
  auto missing = this->resume_options();
  missing.checkpoint_dir = scratch_dir(std::string("missing_") + TypeParam::kFile);
  EXPECT_THROW(TypeParam::run(this->g_, this->sources_, missing), sim::SnapshotError);

  // And there is nothing to resume from without a checkpoint directory.
  auto no_dir = this->resume_options();
  no_dir.checkpoint_dir.clear();
  EXPECT_THROW(TypeParam::run(this->g_, this->sources_, no_dir), sim::SnapshotError);

  // The untouched file still resumes.
  EXPECT_FALSE(TypeParam::run(this->g_, this->sources_, this->resume_options()).halted);
}

TYPED_TEST(DurableResume, RejectsTruncatedAccum) {
  this->expect_edited_accum_rejected(
      [](std::vector<std::uint8_t>& bytes) { bytes.resize(bytes.size() / 2); });
}

TYPED_TEST(DurableResume, RejectsHugeTableCount) {
  // A row count of 2^40 must be refused before anything is allocated.
  this->expect_edited_accum_rejected([](std::vector<std::uint8_t>& bytes) {
    util::RecvBuffer accum(bytes.data(), bytes.size());
    TypeParam::skip_to_tables(accum);
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + (accum.size() - accum.remaining()), &huge, sizeof(huge));
  });
}

TYPED_TEST(DurableResume, RejectsShortScores) {
  // Scores for 10 of the graph's 40 vertices: CRC-valid and fully parsable,
  // but resuming would index past the end of the score vector.
  this->expect_edited_accum_rejected(
      [](std::vector<std::uint8_t>& bytes) { shorten_scores(bytes, 0, 10); });
}

TEST(DurableRestart, SbbcColdRestartBitIdentity) {
  const std::string dir = scratch_dir("sbbc_cold");
  const Graph g = graph::erdos_renyi(45, 0.09, 17);
  const auto sources = graph::sample_sources(g, 7, 23, /*contiguous=*/false);

  baselines::SbbcOptions opts;
  opts.num_hosts = 4;
  opts.collect_tables = true;
  const auto golden = baselines::sbbc_bc(g, sources, opts);

  baselines::SbbcOptions dopts = opts;
  dopts.checkpoint_dir = dir;
  dopts.halt_after_checkpoints = 2;
  const auto first = baselines::sbbc_bc(g, sources, dopts);
  ASSERT_TRUE(first.halted);

  baselines::SbbcOptions ropts = opts;
  ropts.checkpoint_dir = dir;
  ropts.resume = true;
  ropts.halt_after_checkpoints = 2;
  baselines::SbbcRun final_run;
  int restarts = 0;
  for (;;) {
    final_run = baselines::sbbc_bc(g, sources, ropts);
    ++restarts;
    if (!final_run.halted) break;
    ASSERT_LT(restarts, 64) << "resume chain failed to make progress";
  }
  EXPECT_GE(restarts, 1);

  expect_bits_equal(golden.result.bc, final_run.result.bc, "sbbc cold restart");
  testing::expect_tables_equal(golden.result, final_run.result, "sbbc cold restart tables");
  EXPECT_EQ(final_run.forward.rounds, golden.forward.rounds);
  EXPECT_EQ(final_run.backward.rounds, golden.backward.rounds);
  EXPECT_EQ(final_run.total().messages, golden.total().messages);
  EXPECT_EQ(final_run.total().bytes, golden.total().bytes);
}

TEST(DurableRestart, MrbcResumeUnderDeathSchedule) {
  // SIGKILL + resume while a death schedule is in flight: the fault cursor
  // and membership persist through the snapshot, so resumed runs neither
  // replay already-survived deaths nor lose the degraded placement.
  const std::string dir = scratch_dir("mrbc_death_resume");
  const Graph g = graph::erdos_renyi(55, 0.08, 41);
  const auto sources = graph::sample_sources(g, 10, 9, /*contiguous=*/false);

  core::MrbcOptions opts;
  opts.num_hosts = 5;
  opts.batch_size = 4;
  opts.cluster.checkpoint_interval = 2;
  const auto golden = core::mrbc_bc(g, sources, opts);

  const sim::FaultPlan plan = death_plan({{sim::FaultKind::kHostDeath, 3, 1},
                                          {sim::FaultKind::kHostDeath, 9, 4}});

  // Uninterrupted faulted run (reference for the deterministic counters,
  // which include replay traffic and so differ from the fault-free run).
  sim::FaultInjector ref_injector(plan, opts.num_hosts);
  sim::Membership ref_membership(opts.num_hosts);
  core::MrbcOptions refopts = opts;
  refopts.cluster.fault = &ref_injector;
  refopts.cluster.membership = &ref_membership;
  const auto reference = core::mrbc_bc(g, sources, refopts);
  expect_bits_equal(golden.result.bc, reference.result.bc, "death reference");

  // Interrupted + resumed: fresh injector and membership per cold start —
  // their state comes back from the snapshot, exactly like a new process.
  auto faulted_call = [&](bool resume, std::size_t halt) {
    sim::FaultInjector injector(plan, opts.num_hosts);
    sim::Membership membership(opts.num_hosts);
    core::MrbcOptions o = opts;
    o.cluster.fault = &injector;
    o.cluster.membership = &membership;
    o.checkpoint_dir = dir;
    o.resume = resume;
    o.halt_after_checkpoints = halt;
    return core::mrbc_bc(g, sources, o);
  };
  ASSERT_TRUE(faulted_call(false, 3).halted);
  core::MrbcRun resumed;
  int restarts = 0;
  for (;;) {
    resumed = faulted_call(true, 4);
    ++restarts;
    if (!resumed.halted) break;
    ASSERT_LT(restarts, 200) << "resume chain failed to make progress";
  }

  expect_bits_equal(golden.result.bc, resumed.result.bc, "death resume vs fault-free");
  EXPECT_EQ(resumed.forward.rounds, reference.forward.rounds);
  EXPECT_EQ(resumed.backward.rounds, reference.backward.rounds);
  EXPECT_EQ(resumed.total().messages, reference.total().messages);
  EXPECT_EQ(resumed.total().bytes, reference.total().bytes);
  EXPECT_EQ(resumed.total().faults.deaths, reference.total().faults.deaths);
  EXPECT_EQ(resumed.total().faults.handoffs, reference.total().faults.handoffs);
  EXPECT_EQ(resumed.total().faults.detection_rounds,
            reference.total().faults.detection_rounds);
  EXPECT_EQ(resumed.total().faults.recovery_rounds,
            reference.total().faults.recovery_rounds);
}

TEST(DurableRestart, IncrementalBcSaveLoadContinuesExactly) {
  const std::string dir = scratch_dir("inc_cold");
  const std::string path = dir + "/inc.ckpt";
  const Graph g = graph::erdos_renyi(40, 0.08, 29);

  stream::IncrementalBcOptions opts;
  opts.num_samples = 12;
  opts.seed = 5;
  opts.mrbc.num_hosts = 3;
  opts.mrbc.batch_size = 4;

  stream::IncrementalBc control(g, opts);
  stream::IncrementalBc interrupted(g, opts);

  util::Xoshiro256 rng(123);
  auto random_batch = [&]() {
    stream::EdgeBatch batch;
    for (int i = 0; i < 12; ++i) {
      const auto u = static_cast<VertexId>(rng.next_bounded(40));
      const auto v = static_cast<VertexId>(rng.next_bounded(40));
      if (rng.next_bool(0.3)) {
        batch.erase(u, v);
      } else {
        batch.insert(u, v);
      }
    }
    return batch;
  };

  // Both maintainers see batch A; the interrupted one then "dies" (saved to
  // disk, object discarded) and is reloaded cold.
  const stream::EdgeBatch a = random_batch();
  control.apply(a);
  interrupted.apply(a);
  interrupted.save(path);
  stream::IncrementalBc restored = stream::IncrementalBc::load(path, opts);
  EXPECT_EQ(restored.epoch(), control.epoch());
  EXPECT_EQ(restored.graph().out_targets(), control.graph().out_targets());
  EXPECT_EQ(restored.sources(), control.sources());
  expect_bits_equal(control.scores(), restored.scores(), "restored scores");

  // Continued churn after the cold restart stays bit-identical.
  for (int round = 0; round < 2; ++round) {
    const stream::EdgeBatch b = random_batch();
    control.apply(b);
    restored.apply(b);
    expect_bits_equal(control.scores(), restored.scores(),
                      "post-restore round " + std::to_string(round));
    EXPECT_EQ(restored.epoch(), control.epoch());
  }

  EXPECT_THROW(stream::IncrementalBc::load(dir + "/absent.ckpt", opts), sim::SnapshotError);
}

TEST(DurableRestart, IncrementalBcLoadRejectsInconsistentState) {
  const std::string path = scratch_dir("inc_inconsistent") + "/serve.ckpt";
  const Graph g = graph::erdos_renyi(40, 0.08, 29);
  stream::IncrementalBcOptions opts;
  opts.num_samples = 12;
  opts.mrbc.num_hosts = 3;
  const stream::IncrementalBc inc(g, opts);

  // Scores for 10 of the 40 vertices (state section: sources, then scores).
  inc.save(path);
  reframe(path, [](std::uint32_t id, std::vector<std::uint8_t>& bytes) {
    if (id != 3) return;
    util::RecvBuffer state(bytes.data(), bytes.size());
    state.read_vector<VertexId>();
    shorten_scores(bytes, state.size() - state.remaining(), 10);
  });
  EXPECT_THROW(stream::IncrementalBc::load(path, opts), sim::SnapshotError);

  // An edge into vertex 40 of a 40-vertex graph (graph section: offsets,
  // then targets; the last target is the file's last four bytes).
  inc.save(path);
  reframe(path, [](std::uint32_t id, std::vector<std::uint8_t>& bytes) {
    if (id != 2) return;
    const VertexId out_of_range = 40;
    std::memcpy(bytes.data() + bytes.size() - sizeof(VertexId), &out_of_range,
                sizeof(out_of_range));
  });
  EXPECT_THROW(stream::IncrementalBc::load(path, opts), sim::SnapshotError);
}

TEST(DurableRestart, IncrementalBcSnapshotBytesArePinned) {
  // serve.ckpt is read back by later builds: a fixed graph and a fixed
  // churn must write the same bytes, down to the file's hash. The churn
  // deletes and re-inserts base edges, nets out an insert-then-delete, and
  // ends on a batch that changes nothing, so the two epoch counters differ.
  const std::string path = scratch_dir("inc_pinned") + "/serve.ckpt";
  const Graph g = graph::erdos_renyi(40, 0.08, 29);
  stream::IncrementalBcOptions opts;
  opts.num_samples = 12;
  opts.seed = 5;
  opts.mrbc.num_hosts = 3;
  stream::IncrementalBc inc(g, opts);

  std::vector<graph::Edge> base_edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.out_neighbors(u)) base_edges.push_back({u, v});
  }
  ASSERT_GE(base_edges.size(), 8u);
  util::Xoshiro256 rng(321);
  const auto random_vertex = [&] { return static_cast<VertexId>(rng.next_bounded(40)); };

  stream::EdgeBatch first;
  for (int i = 0; i < 4; ++i) first.erase(base_edges[i * 2].src, base_edges[i * 2].dst);
  for (int i = 0; i < 6; ++i) first.insert(random_vertex(), random_vertex());
  first.insert(7, 7);
  first.insert(3, 40);
  inc.apply(first);

  stream::EdgeBatch second;
  second.insert(base_edges[0].src, base_edges[0].dst);
  second.insert(base_edges[2].src, base_edges[2].dst);
  second.insert(39, 0);
  second.erase(39, 0);
  for (int i = 0; i < 4; ++i) second.insert(random_vertex(), random_vertex());
  inc.apply(second);

  stream::EdgeBatch unchanged;
  unchanged.insert(base_edges[1].src, base_edges[1].dst);
  unchanged.erase(base_edges[4].src, base_edges[4].dst);
  inc.apply(unchanged);
  EXPECT_EQ(inc.epoch(), 3u);

  inc.save(path);
  sim::SnapshotReader::from_file(path).read(1, "meta", [](util::RecvBuffer& meta) {
    EXPECT_EQ(meta.read<std::uint64_t>(), 3u);  // applies
    EXPECT_EQ(meta.read<std::uint64_t>(), 2u);  // applies that changed the graph
  });
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
  for (const std::uint8_t b : bytes) hash = (hash ^ b) * 0x100000001b3ull;
  EXPECT_EQ(bytes.size(), 11276u);
  EXPECT_EQ(hash, 0x5cda10efd1b906fcull);
}

// ---- Snapshot corruption hardening ------------------------------------------

TEST(Snapshot, RoundTripAndMissingSection) {
  const std::string dir = scratch_dir("snap_roundtrip");
  const std::string path = dir + "/snap.bin";
  sim::SnapshotWriter w;
  w.section(7).write<std::uint64_t>(0x123456789abcdef0ull);
  w.section(9).write_vector(std::vector<double>{1.5, -2.25, 3.0});
  w.write_file(path);

  const sim::SnapshotReader r = sim::SnapshotReader::from_file(path);
  EXPECT_TRUE(r.has(7));
  EXPECT_TRUE(r.has(9));
  EXPECT_FALSE(r.has(8));
  EXPECT_THROW(r.section(8), sim::SnapshotError);
  const std::vector<std::uint8_t>& meta = r.section(7);
  util::RecvBuffer buf(meta.data(), meta.size());
  EXPECT_EQ(buf.read<std::uint64_t>(), 0x123456789abcdef0ull);
}

/// Every truncation point of the snapshot file at `path` must be rejected
/// (mid-header, mid-section header and mid-payload alike), and so must a
/// truncated file on disk.
void expect_truncations_rejected(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  ASSERT_GT(bytes.size(), 40u);
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{15},
                          std::size_t{20}, bytes.size() - 1}) {
    EXPECT_THROW(
        sim::SnapshotReader(std::vector<std::uint8_t>(bytes.begin(),
                                                      bytes.begin() + static_cast<std::ptrdiff_t>(cut))),
        sim::SnapshotError)
        << "cut at " << cut;
  }
  write_file_bytes(path, std::vector<std::uint8_t>(bytes.begin(), bytes.end() - 3));
  EXPECT_THROW(sim::SnapshotReader::from_file(path), sim::SnapshotError);
}

/// Flips a bit of the magic, the version and the first payload byte of a
/// valid snapshot image; each must be rejected with an error naming it.
void expect_bit_flips_rejected(const std::vector<std::uint8_t>& good) {
  // Magic: offset 0..7.
  {
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0x01;
    try {
      sim::SnapshotReader reader(std::move(bad));
      FAIL() << "bad magic accepted";
    } catch (const sim::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    }
  }
  // Version: offset 8..11.
  {
    std::vector<std::uint8_t> bad = good;
    bad[8] ^= 0x40;
    try {
      sim::SnapshotReader reader(std::move(bad));
      FAIL() << "bad version accepted";
    } catch (const sim::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    }
  }
  // Payload: first payload byte sits after the 16-byte file header and the
  // 16-byte section header — a single flipped bit must trip the CRC.
  {
    std::vector<std::uint8_t> bad = good;
    ASSERT_GT(bad.size(), 33u);
    bad[32] ^= 0x10;
    try {
      sim::SnapshotReader reader(std::move(bad));
      FAIL() << "corrupt payload accepted";
    } catch (const sim::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
    }
  }
  // The pristine bytes still parse.
  EXPECT_NO_THROW(sim::SnapshotReader(std::vector<std::uint8_t>(good)));
}

TEST(Snapshot, TruncationIsRejected) {
  const std::string dir = scratch_dir("snap_truncate");
  const std::string path = dir + "/snap.bin";
  sim::SnapshotWriter w;
  w.section(1).write_vector(std::vector<std::uint64_t>{1, 2, 3, 4});
  w.write_file(path);
  expect_truncations_rejected(path);
}

TEST(Snapshot, BitFlipsAreRejectedWithClearErrors) {
  const std::string dir = scratch_dir("snap_bitflip");
  const std::string path = dir + "/snap.bin";
  sim::SnapshotWriter w;
  w.section(1).write_vector(std::vector<std::uint64_t>{11, 22, 33});
  w.write_file(path);
  expect_bit_flips_rejected(read_file_bytes(path));
}

TEST(Snapshot, AttachedPayloadFramesLikeBufferedBytes) {
  // A section made of a buffered prefix plus a borrowed payload must be
  // byte-for-byte the file that section() alone writes for the same data.
  const std::string dir = scratch_dir("snap_attach");
  std::vector<std::uint8_t> payload(100000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  auto fill_prefix = [](sim::SnapshotWriter& w) {
    w.section(3).write<std::uint64_t>(0x0123456789abcdefull);
    w.section(4).write<std::uint8_t>(1);
    w.section(4).write<std::uint64_t>(100000);
  };

  const std::string buffered_path = dir + "/buffered.bin";
  sim::SnapshotWriter buffered;
  fill_prefix(buffered);
  buffered.section(4).write_raw(payload.data(), payload.size());
  buffered.section(5).write_raw(payload.data(), 17);
  buffered.section(6);
  buffered.write_file(buffered_path);

  const std::string attached_path = dir + "/attached.bin";
  sim::SnapshotWriter attached;
  fill_prefix(attached);
  attached.attach(4, payload.data(), payload.size());
  attached.attach(5, payload.data(), 17);  // a section with no prefix
  attached.attach(6, payload.data(), 0);   // an empty attachment
  EXPECT_THROW(attached.attach(4, payload.data(), 1), std::logic_error);
  attached.write_file(attached_path);

  const std::vector<std::uint8_t> bytes = read_file_bytes(attached_path);
  EXPECT_EQ(bytes, read_file_bytes(buffered_path));
  const sim::SnapshotReader reader{std::vector<std::uint8_t>(bytes)};
  const std::vector<std::uint8_t>& sec = reader.section(4);
  ASSERT_EQ(sec.size(), 9 + payload.size());
  util::RecvBuffer buf(sec.data(), sec.size());
  EXPECT_EQ(buf.read<std::uint8_t>(), 1u);
  EXPECT_EQ(buf.read<std::uint64_t>(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), sec.begin() + 9));
  EXPECT_EQ(reader.section(5), std::vector<std::uint8_t>(payload.begin(), payload.begin() + 17));
  EXPECT_TRUE(reader.section(6).empty());

  // The corruption checks hold on the streamed file, a flip inside the
  // borrowed payload included.
  expect_bit_flips_rejected(bytes);
  std::vector<std::uint8_t> bad = bytes;
  bad[bytes.size() / 2] ^= 0x04;
  EXPECT_THROW(sim::SnapshotReader(std::move(bad)), sim::SnapshotError);
  expect_truncations_rejected(attached_path);
}

TEST(Snapshot, FailedWritesLeaveNoFileBehind) {
  const std::string dir = scratch_dir("snap_errors");
  sim::SnapshotWriter w;
  w.section(1).write<std::uint32_t>(5);
  std::vector<std::uint8_t> payload(4096, 0x7F);
  w.attach(1, payload.data(), payload.size());

  // Unwritable location.
  EXPECT_THROW(w.write_file(dir + "/no/such/dir/snap.bin"), sim::SnapshotError);
  // The rename onto a non-empty directory fails, and the tmp file goes.
  const std::string occupied = dir + "/occupied";
  std::filesystem::create_directories(occupied + "/child");
  EXPECT_THROW(w.write_file(occupied), sim::SnapshotError);
  EXPECT_FALSE(std::filesystem::exists(occupied + ".tmp"));
  // The same writer still writes a readable file.
  const std::string path = dir + "/snap.bin";
  w.write_file(path);
  EXPECT_EQ(sim::SnapshotReader::from_file(path).section(1).size(), 4 + payload.size());
}

TEST(Snapshot, FaultPlanReproFileRoundTrips) {
  const std::string dir = scratch_dir("fault_repro");
  const std::string path = dir + "/repro.snap";

  sim::FaultPlan plan;
  plan.seed = 424242;
  plan.drop_rate = 0.125;
  plan.duplicate_rate = 0.0625;
  plan.corrupt_rate = 0.03125;
  plan.straggler_rate = 0.25;
  plan.straggler_slowdown = 6.5;
  plan.crash_round = 4;
  plan.crash_host = 2;
  plan.events.push_back({sim::FaultKind::kCrash, 3, 1});
  plan.events.push_back({sim::FaultKind::kHostDeath, 7, 5});

  sim::save_fault_plan_file(path, plan, 1234);

  std::uint64_t fuzz_seed = 0;
  const sim::FaultPlan loaded = sim::load_fault_plan_file(path, &fuzz_seed);
  EXPECT_EQ(fuzz_seed, 1234u);
  EXPECT_EQ(loaded.seed, plan.seed);
  EXPECT_EQ(loaded.drop_rate, plan.drop_rate);
  EXPECT_EQ(loaded.duplicate_rate, plan.duplicate_rate);
  EXPECT_EQ(loaded.corrupt_rate, plan.corrupt_rate);
  EXPECT_EQ(loaded.straggler_rate, plan.straggler_rate);
  EXPECT_EQ(loaded.straggler_slowdown, plan.straggler_slowdown);
  EXPECT_EQ(loaded.crash_round, plan.crash_round);
  EXPECT_EQ(loaded.crash_host, plan.crash_host);
  ASSERT_EQ(loaded.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(loaded.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(loaded.events[i].round, plan.events[i].round) << i;
    EXPECT_EQ(loaded.events[i].host, plan.events[i].host) << i;
  }

  EXPECT_THROW(sim::load_fault_plan_file(dir + "/absent.snap", &fuzz_seed),
               sim::SnapshotError);
}

// ---- Cooperative shutdown (halt_flag) ---------------------------------------

TEST(HaltFlag, MrbcStopsAtCheckpointBoundaryAndResumesExactly) {
  // The SIGINT/SIGTERM path bc_tool uses: a flag raised mid-run stops the
  // run at the next durable snapshot write, and a resume completes with
  // bit-identical results — checkpoint-then-exit, never die mid-write.
  const std::string dir = scratch_dir("halt_flag");
  const Graph g = graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 3});
  const auto sources = graph::sample_sources(g, 10, 11, /*contiguous=*/false);

  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 4;
  opts.cluster.checkpoint_interval = 2;
  const auto golden = core::mrbc_bc(g, sources, opts);

  std::atomic<bool> halt{true};  // raised before the run: halt at the first write
  core::MrbcOptions dopts = opts;
  dopts.checkpoint_dir = dir;
  dopts.halt_flag = &halt;
  const auto first = core::mrbc_bc(g, sources, dopts);
  ASSERT_TRUE(first.halted);

  halt.store(false);
  core::MrbcOptions ropts = dopts;
  ropts.resume = true;
  const auto resumed = core::mrbc_bc(g, sources, ropts);
  ASSERT_FALSE(resumed.halted);
  expect_bits_equal(golden.result.bc, resumed.result.bc, "halt_flag resume");
  EXPECT_EQ(resumed.forward.rounds, golden.forward.rounds);
  EXPECT_EQ(resumed.backward.rounds, golden.backward.rounds);
}

TEST(HaltFlag, UnraisedFlagIsInert) {
  const Graph g = graph::erdos_renyi(40, 0.1, 13);
  const auto sources = graph::sample_sources(g, 6, 1, /*contiguous=*/false);
  const std::string dir = scratch_dir("halt_flag_inert");
  std::atomic<bool> halt{false};

  core::MrbcOptions opts;
  opts.num_hosts = 3;
  opts.batch_size = 3;
  opts.checkpoint_dir = dir;
  opts.cluster.checkpoint_interval = 2;
  opts.halt_flag = &halt;
  EXPECT_FALSE(core::mrbc_bc(g, sources, opts).halted);
}

TEST(HaltFlag, SbbcStopsAtCheckpointBoundaryAndResumesExactly) {
  const std::string dir = scratch_dir("halt_flag_sbbc");
  const Graph g = graph::rmat({.scale = 5, .edge_factor = 4.0, .seed = 7});
  const auto sources = graph::sample_sources(g, 8, 3, /*contiguous=*/false);

  baselines::SbbcOptions opts;
  opts.num_hosts = 3;
  opts.cluster.checkpoint_interval = 2;
  const auto golden = baselines::sbbc_bc(g, sources, opts);

  std::atomic<bool> halt{true};
  baselines::SbbcOptions dopts = opts;
  dopts.checkpoint_dir = dir;
  dopts.halt_flag = &halt;
  const auto first = baselines::sbbc_bc(g, sources, dopts);
  ASSERT_TRUE(first.halted);

  halt.store(false);
  baselines::SbbcOptions ropts = dopts;
  ropts.resume = true;
  const auto resumed = baselines::sbbc_bc(g, sources, ropts);
  ASSERT_FALSE(resumed.halted);
  expect_bits_equal(golden.result.bc, resumed.result.bc, "sbbc halt_flag resume");
}

}  // namespace
}  // namespace mrbc
