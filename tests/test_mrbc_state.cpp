// Unit tests for the Section 4.3 data-structure layer (HostState): the
// dense per-source slot array, the sorted (dist, source) row of L_v per
// vertex, the lexicographic rank queries that drive the pipelined send
// schedule, the dirty tracking used by the reduce phase, and the
// checkpoint round trip that rebuilds the rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/mrbc_state.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace mrbc::core {
namespace {

TEST(HostState, SlotsStartAtIdentity) {
  HostState st(4, 3);
  for (VertexId lid = 0; lid < 4; ++lid) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(st.slot(lid, s).dist, graph::kInfDist);
      EXPECT_DOUBLE_EQ(st.slot(lid, s).sigma, 0.0);
      EXPECT_DOUBLE_EQ(st.slot(lid, s).delta, 0.0);
    }
    EXPECT_EQ(st.entry_count(lid), 0u);
  }
}

TEST(HostState, UpdateDistanceMaintainsRow) {
  HostState st(2, 4);
  st.update_distance(0, 2, 5);
  EXPECT_EQ(st.slot(0, 2).dist, 5u);
  EXPECT_EQ(st.entry_count(0), 1u);
  EXPECT_EQ(st.nth_entry(0, 0), (std::pair<std::uint32_t, std::uint32_t>{5, 2}));

  // Improvement moves the entry between buckets.
  st.update_distance(0, 2, 3);
  EXPECT_EQ(st.slot(0, 2).dist, 3u);
  EXPECT_EQ(st.entry_count(0), 1u);
  EXPECT_EQ(st.nth_entry(0, 0), (std::pair<std::uint32_t, std::uint32_t>{3, 2}));

  // Same distance is a no-op.
  st.update_distance(0, 2, 3);
  EXPECT_EQ(st.entry_count(0), 1u);
}

TEST(HostState, LexicographicOrderAcrossSourcesAndDistances) {
  HostState st(1, 6);
  st.update_distance(0, 4, 2);
  st.update_distance(0, 1, 2);
  st.update_distance(0, 3, 1);
  st.update_distance(0, 0, 3);
  // Expected (dist, source) order: (1,3) (2,1) (2,4) (3,0).
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected{
      {1, 3}, {2, 1}, {2, 4}, {3, 0}};
  ASSERT_EQ(st.entry_count(0), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(st.nth_entry(0, i), expected[i]) << i;
  }
  // position() is 1-based and inverse to nth_entry.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(st.position(0, expected[i].first, expected[i].second), i + 1);
  }
}

TEST(HostState, ClearDistanceRemovesEntry) {
  HostState st(1, 3);
  st.update_distance(0, 1, 7);
  st.update_distance(0, 2, 7);
  st.clear_distance(0, 1);
  EXPECT_EQ(st.slot(0, 1).dist, graph::kInfDist);
  EXPECT_EQ(st.entry_count(0), 1u);
  EXPECT_EQ(st.nth_entry(0, 0), (std::pair<std::uint32_t, std::uint32_t>{7, 2}));
  // Clearing an absent entry is a no-op.
  st.clear_distance(0, 1);
  EXPECT_EQ(st.entry_count(0), 1u);
}

TEST(HostState, DirtyTrackingIsIdempotent) {
  HostState st(2, 5);
  EXPECT_TRUE(st.mark_dirty(1, 3));
  EXPECT_FALSE(st.mark_dirty(1, 3));
  EXPECT_TRUE(st.mark_dirty(1, 0));
  EXPECT_EQ(st.dirty_sources(1), (std::vector<std::uint32_t>{3, 0}));
  EXPECT_TRUE(st.dirty_sources(0).empty());
  st.clear_dirty(1);
  EXPECT_TRUE(st.dirty_sources(1).empty());
  EXPECT_TRUE(st.mark_dirty(1, 3)) << "flags must reset with the list";
}

TEST(HostState, MatchesSortedVectorReference) {
  // Property test: random update/clear churn over three adjacent rows
  // against a sorted-vector reference per lid, at batch sizes on both sides
  // of one and two 64-source words. At random steps the state goes through
  // save() into a fresh HostState, whose rows restore() rebuilds from the
  // slots; the churn then continues on the restored copy.
  constexpr VertexId kLids = 3;
  using Ref = std::vector<std::pair<std::uint32_t, std::uint32_t>>;  // (dist, sidx) sorted
  for (const std::uint32_t k : {1u, 24u, 64u, 65u, 128u}) {
    HostState st(kLids, k);
    std::vector<Ref> ref(kLids);
    util::Xoshiro256 rng(17 + k);
    for (int step = 0; step < 3000; ++step) {
      const auto lid = static_cast<VertexId>(rng.next_bounded(kLids));
      const auto sidx = static_cast<std::uint32_t>(rng.next_bounded(k));
      Ref& r = ref[lid];
      auto it = std::find_if(r.begin(), r.end(), [&](const auto& e) { return e.second == sidx; });
      if (rng.next_bool(0.15)) {
        st.clear_distance(lid, sidx);
        if (it != r.end()) r.erase(it);
      } else {
        const auto d = static_cast<std::uint32_t>(rng.next_bounded(30));
        st.update_distance(lid, sidx, d);
        if (it != r.end()) r.erase(it);
        r.emplace_back(d, sidx);
        std::sort(r.begin(), r.end());
      }
      if (rng.next_bool(0.01)) {
        util::SendBuffer buf;
        st.save(buf);
        HostState restored(kLids, k);
        util::RecvBuffer in(buf);
        restored.restore(in);
        ASSERT_EQ(in.remaining(), 0u);
        st = std::move(restored);
      }
      for (VertexId l = 0; l < kLids; ++l) {
        ASSERT_EQ(st.entry_count(l), ref[l].size()) << "k " << k << " step " << step;
        for (std::size_t i = 0; i < ref[l].size(); ++i) {
          ASSERT_EQ(st.nth_entry(l, i), ref[l][i]) << "k " << k << " step " << step << " idx " << i;
          ASSERT_EQ(st.position(l, ref[l][i].first, ref[l][i].second), i + 1);
          ASSERT_EQ(st.slot(l, ref[l][i].second).dist, ref[l][i].first);
        }
      }
    }
  }
}

TEST(HostState, RestoreRejectsOutOfRangeIndices) {
  // A source index >= k in a dirty or staging list, or a pipelining cursor
  // past its lid's entry count, is refused instead of indexing past the
  // label state.
  HostState st(2, 3);
  st.update_distance(1, 2, 4);
  auto saved_with = [&](auto&& edit) {
    HostState copy(2, 3);
    util::SendBuffer buf;
    st.save(buf);
    util::RecvBuffer in(buf);
    copy.restore(in);
    edit(copy);
    util::SendBuffer out;
    copy.save(out);
    return out;
  };
  auto restore_throws = [](const util::SendBuffer& buf) {
    HostState fresh(2, 3);
    util::RecvBuffer in(buf);
    EXPECT_THROW(fresh.restore(in), std::out_of_range);
  };
  restore_throws(saved_with([](HostState& s) { s.dirty_sources(0).push_back(3); }));
  restore_throws(saved_with([](HostState& s) { s.to_broadcast[1].push_back({7, true}); }));
  restore_throws(saved_with([](HostState& s) { s.fwd_sent[1] = 2; }));
  restore_throws(saved_with([](HostState& s) { s.acc_sent[0] = 1; }));
  // In range: restores cleanly.
  const util::SendBuffer ok = saved_with([](HostState& s) {
    s.dirty_sources(0).push_back(2);
    s.fwd_sent[1] = 1;
  });
  HostState fresh(2, 3);
  util::RecvBuffer in(ok);
  fresh.restore(in);
  EXPECT_EQ(fresh.entry_count(1), 1u);
  EXPECT_EQ(fresh.fwd_sent[1], 1u);
  EXPECT_FALSE(fresh.mark_dirty(0, 2)) << "restored dirty lists re-mark their words";
}

TEST(HostState, PipeliningCursorsStartAtZero) {
  HostState st(5, 2);
  for (VertexId lid = 0; lid < 5; ++lid) {
    EXPECT_EQ(st.fwd_sent[lid], 0u);
    EXPECT_EQ(st.acc_sent[lid], 0u);
    EXPECT_TRUE(st.to_broadcast[lid].empty());
  }
}

}  // namespace
}  // namespace mrbc::core
