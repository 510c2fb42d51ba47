// Unit tests for the Section 4.3 data-structure layer (HostState): the
// dense per-source slot array, the sorted (dist, source) row of L_v per
// master, the lexicographic rank queries that drive the pipelined send
// schedule, mirrors that keep no row, the dirty tracking used by the
// reduce phase, and the checkpoint round trip that rebuilds the rows.

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

/// is_master for `n` proxies that are all masters.
std::vector<bool> masters(VertexId n) { return std::vector<bool>(n, true); }

TEST(HostState, SlotsStartAtIdentity) {
  HostState st(masters(4), 3);
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
  HostState st(masters(2), 4);
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
  HostState st(masters(1), 6);
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

TEST(HostState, DirtyTrackingIsIdempotent) {
  HostState st(masters(2), 5);
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
  // Property test: random distance churn over three adjacent master rows
  // and a mirror between them, against a sorted-vector reference per
  // master, at batch sizes on both sides of one and two 64-source words.
  // The mirror's distances go up, down and back to infinity (its
  // reduce-reset) in its slot alone. At random steps the state goes through
  // save() into a fresh HostState, whose rows restore() rebuilds from the
  // slots; the churn then continues on the restored copy.
  const std::vector<bool> is_master{true, false, true, true};
  const auto lids = static_cast<VertexId>(is_master.size());
  constexpr VertexId kMirror = 1;
  using Ref = std::vector<std::pair<std::uint32_t, std::uint32_t>>;  // (dist, sidx) sorted
  for (const std::uint32_t k : {1u, 24u, 64u, 65u, 128u}) {
    HostState st(is_master, k);
    std::vector<Ref> ref(lids);
    std::vector<std::uint32_t> mirror_dist(k, graph::kInfDist);
    util::Xoshiro256 rng(17 + k);
    for (int step = 0; step < 3000; ++step) {
      const auto lid = static_cast<VertexId>(rng.next_bounded(lids));
      const auto sidx = static_cast<std::uint32_t>(rng.next_bounded(k));
      const auto d = static_cast<std::uint32_t>(rng.next_bounded(30));
      if (lid == kMirror) {
        if (rng.next_bool(0.15)) {
          st.slot(lid, sidx).dist = graph::kInfDist;
          mirror_dist[sidx] = graph::kInfDist;
        } else {
          st.update_distance(lid, sidx, d);
          mirror_dist[sidx] = d;
        }
      } else {
        Ref& r = ref[lid];
        auto it = std::find_if(r.begin(), r.end(), [&](const auto& e) { return e.second == sidx; });
        st.update_distance(lid, sidx, d);
        if (it != r.end()) r.erase(it);
        r.emplace_back(d, sidx);
        std::sort(r.begin(), r.end());
      }
      if (rng.next_bool(0.01)) {
        util::SendBuffer buf;
        st.save(buf);
        HostState restored(is_master, k);
        util::RecvBuffer in(buf);
        restored.restore(in);
        ASSERT_EQ(in.remaining(), 0u);
        st = std::move(restored);
      }
      for (VertexId l = 0; l < lids; ++l) {
        ASSERT_EQ(st.entry_count(l), ref[l].size()) << "k " << k << " step " << step;
        for (std::size_t i = 0; i < ref[l].size(); ++i) {
          ASSERT_EQ(st.nth_entry(l, i), ref[l][i]) << "k " << k << " step " << step << " idx " << i;
          ASSERT_EQ(st.position(l, ref[l][i].first, ref[l][i].second), i + 1);
          ASSERT_EQ(st.slot(l, ref[l][i].second).dist, ref[l][i].first);
        }
      }
      for (std::uint32_t s = 0; s < k; ++s) {
        ASSERT_EQ(st.slot(kMirror, s).dist, mirror_dist[s]) << "k " << k << " step " << step;
      }
    }
  }
}

TEST(HostState, RestoreRejectsOutOfRangeIndices) {
  // A source index >= k in a dirty or staging list, a pipelining cursor
  // past its lid's entry count, a nonzero cursor on a mirror (which keeps
  // no entries), or labels of another shape are refused instead of
  // indexing past the label state. Lid 2 is a mirror with a finite
  // distance.
  const std::vector<bool> is_master{true, true, false};
  HostState st(is_master, 3);
  st.update_distance(1, 2, 4);
  st.update_distance(2, 0, 5);
  auto saved_with = [&](auto&& edit) {
    HostState copy(is_master, 3);
    util::SendBuffer buf;
    st.save(buf);
    util::RecvBuffer in(buf);
    copy.restore(in);
    edit(copy);
    util::SendBuffer out;
    copy.save(out);
    return out;
  };
  auto restore_throws = [&](const util::SendBuffer& buf) {
    HostState fresh(is_master, 3);
    util::RecvBuffer in(buf);
    EXPECT_THROW(fresh.restore(in), std::out_of_range);
  };
  restore_throws(saved_with([](HostState& s) { s.dirty_sources(0).push_back(3); }));
  restore_throws(saved_with([](HostState& s) { s.to_broadcast[1].push_back({7, true}); }));
  restore_throws(saved_with([](HostState& s) { s.fwd_sent[1] = 2; }));
  restore_throws(saved_with([](HostState& s) { s.acc_sent[0] = 1; }));
  restore_throws(saved_with([](HostState& s) { s.fwd_sent[2] = 1; }));
  restore_throws(saved_with([](HostState& s) { s.acc_sent[2] = 1; }));
  {
    util::SendBuffer buf;
    st.save(buf);
    HostState fewer_proxies(masters(2), 3);
    util::RecvBuffer in(buf);
    EXPECT_THROW(fewer_proxies.restore(in), std::out_of_range);
    HostState more_sources(is_master, 4);
    util::RecvBuffer again(buf);
    EXPECT_THROW(more_sources.restore(again), std::out_of_range);
  }
  // In range: restores cleanly.
  const util::SendBuffer ok = saved_with([](HostState& s) {
    s.dirty_sources(0).push_back(2);
    s.fwd_sent[1] = 1;
  });
  HostState fresh(is_master, 3);
  util::RecvBuffer in(ok);
  fresh.restore(in);
  EXPECT_EQ(fresh.entry_count(1), 1u);
  EXPECT_EQ(fresh.fwd_sent[1], 1u);
  EXPECT_FALSE(fresh.mark_dirty(0, 2)) << "restored dirty lists re-mark their words";
  EXPECT_EQ(fresh.slot(2, 0).dist, 5u);
  EXPECT_EQ(fresh.entry_count(2), 0u);
}

TEST(HostState, PipeliningCursorsStartAtZero) {
  HostState st(masters(5), 2);
  for (VertexId lid = 0; lid < 5; ++lid) {
    EXPECT_EQ(st.fwd_sent[lid], 0u);
    EXPECT_EQ(st.acc_sent[lid], 0u);
    EXPECT_TRUE(st.to_broadcast[lid].empty());
  }
}

}  // namespace
}  // namespace mrbc::core
