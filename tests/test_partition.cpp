// Unit and property tests for the partitioning layer: every policy must
// assign every edge exactly once, masters must be unique and total, the
// exchange lists must be consistent, and the Cartesian cut must respect its
// grid structure.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/generators.h"
#include "partition/partition.h"
#include "partition/policies.h"
#include "test_helpers.h"

namespace mrbc::partition {
namespace {

using graph::Graph;
using graph::VertexId;

const Policy kAllPolicies[] = {Policy::kEdgeCutSrc, Policy::kEdgeCutDst,
                               Policy::kCartesianVertexCut, Policy::kGeneralVertexCut,
                               Policy::kRandomEdge};

TEST(BlockOwner, CoversRangeAndIsMonotone) {
  const VertexId n = 103;
  const HostId H = 7;
  HostId prev = 0;
  std::map<HostId, int> counts;
  for (VertexId v = 0; v < n; ++v) {
    const HostId h = block_owner(v, n, H);
    ASSERT_LT(h, H);
    ASSERT_GE(h, prev);
    prev = h;
    counts[h]++;
  }
  ASSERT_EQ(counts.size(), H);
  for (const auto& [h, c] : counts) {
    EXPECT_GE(c, static_cast<int>(n / H));
    EXPECT_LE(c, static_cast<int>(n / H) + 1);
  }
}

TEST(CartesianGrid, FactorsCorrectly) {
  EXPECT_EQ(cartesian_grid(1), (std::pair<HostId, HostId>{1, 1}));
  EXPECT_EQ(cartesian_grid(4), (std::pair<HostId, HostId>{2, 2}));
  EXPECT_EQ(cartesian_grid(6), (std::pair<HostId, HostId>{2, 3}));
  EXPECT_EQ(cartesian_grid(7), (std::pair<HostId, HostId>{1, 7}));
  EXPECT_EQ(cartesian_grid(16), (std::pair<HostId, HostId>{4, 4}));
  EXPECT_EQ(cartesian_grid(12), (std::pair<HostId, HostId>{3, 4}));
}

class PolicySweep : public ::testing::TestWithParam<std::tuple<Policy, int>> {};

TEST_P(PolicySweep, EveryEdgeAssignedExactlyOnce) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::rmat({.scale = 7, .edge_factor = 4.0, .seed = 3});
  Partition part(g, static_cast<HostId>(hosts), policy);
  std::size_t total_edges = 0;
  std::multiset<std::pair<VertexId, VertexId>> local_edges;
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    const auto& hg = part.host(h);
    total_edges += hg.local.num_edges();
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      for (VertexId t : hg.local.out_neighbors(l)) {
        local_edges.insert({hg.local_to_global[l], hg.local_to_global[t]});
      }
    }
  }
  EXPECT_EQ(total_edges, g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.out_neighbors(u)) {
      EXPECT_EQ(local_edges.count({u, v}), 1u) << u << "->" << v;
    }
  }
}

TEST_P(PolicySweep, MastersAreUniqueAndTotal) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::erdos_renyi(80, 0.06, 5);
  Partition part(g, static_cast<HostId>(hosts), policy);
  std::vector<int> master_count(g.num_vertices(), 0);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    const auto& hg = part.host(h);
    VertexId masters = 0;
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      if (hg.is_master[l]) {
        ++master_count[hg.local_to_global[l]];
        ++masters;
        EXPECT_EQ(part.master_host(hg.local_to_global[l]), h);
      }
    }
    EXPECT_EQ(masters, hg.num_masters);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(master_count[v], 1) << v;
}

TEST_P(PolicySweep, LocalIdMapsAreConsistent) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::kronecker(6, 4.0, 7);
  Partition part(g, static_cast<HostId>(hosts), policy);
  for (HostId h = 0; h < part.num_hosts(); ++h) {
    const auto& hg = part.host(h);
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      EXPECT_EQ(part.local_id(h, hg.local_to_global[l]), l);
    }
  }
}

TEST_P(PolicySweep, ExchangeListsAreAligned) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 11});
  Partition part(g, static_cast<HostId>(hosts), policy);
  for (HostId mh = 0; mh < part.num_hosts(); ++mh) {
    for (HostId oh = 0; oh < part.num_hosts(); ++oh) {
      const auto& mirrors = part.mirror_lids(mh, oh);
      const auto& masters = part.master_lids(mh, oh);
      ASSERT_EQ(mirrors.size(), masters.size());
      VertexId prev_gv = 0;
      bool first = true;
      for (std::size_t i = 0; i < mirrors.size(); ++i) {
        const VertexId gv = part.host(mh).local_to_global[mirrors[i]];
        // aligned: both sides refer to the same global vertex
        EXPECT_EQ(part.host(oh).local_to_global[masters[i]], gv);
        // the mirror side is a mirror; the master side is the master
        EXPECT_FALSE(part.host(mh).is_master[mirrors[i]]);
        EXPECT_TRUE(part.host(oh).is_master[masters[i]]);
        EXPECT_EQ(part.master_host(gv), oh);
        // ascending global order
        if (!first) {
          EXPECT_GT(gv, prev_gv);
        }
        prev_gv = gv;
        first = false;
      }
    }
  }
}

TEST_P(PolicySweep, SlotsInvertExchangeLists) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 11});
  Partition part(g, static_cast<HostId>(hosts), policy);
  const HostId H = part.num_hosts();
  std::size_t list_total = 0;
  for (HostId mh = 0; mh < H; ++mh) {
    for (HostId oh = 0; oh < H; ++oh) list_total += part.mirror_lids(mh, oh).size();
  }
  std::size_t slot_total = 0;
  for (HostId h = 0; h < H; ++h) {
    const auto& hg = part.host(h);
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      const VertexId gv = hg.local_to_global[l];
      const auto slots = part.slots(h, l);
      slot_total += slots.size();
      if (!hg.is_master[l]) {
        // A mirror's one slot points back at its own position.
        ASSERT_EQ(slots.size(), 1u);
        EXPECT_EQ(slots[0].peer, part.master_host(gv));
        const auto& mirrors = part.mirror_lids(h, slots[0].peer);
        ASSERT_LT(slots[0].index, mirrors.size());
        EXPECT_EQ(mirrors[slots[0].index], l);
        EXPECT_EQ(slots[0].mirror_has_in_edges, hg.local.in_degree(l) != 0);
        continue;
      }
      // A master has one slot per host holding a mirror of it, ascending.
      std::vector<HostId> mirror_hosts;
      for (HostId mh = 0; mh < H; ++mh) {
        if (mh != h && part.local_id(mh, gv) != graph::kInvalidVertex) mirror_hosts.push_back(mh);
      }
      ASSERT_EQ(slots.size(), mirror_hosts.size()) << "host " << h << " lid " << l;
      for (std::size_t k = 0; k < slots.size(); ++k) {
        EXPECT_EQ(slots[k].peer, mirror_hosts[k]);
        const auto& masters = part.master_lids(slots[k].peer, h);
        ASSERT_LT(slots[k].index, masters.size());
        EXPECT_EQ(masters[slots[k].index], l);
        // ... and whether the mirror there has a local in-edge.
        const VertexId mirror = part.local_id(mirror_hosts[k], gv);
        EXPECT_EQ(slots[k].mirror_has_in_edges,
                  part.host(mirror_hosts[k]).local.in_degree(mirror) != 0);
      }
    }
  }
  EXPECT_EQ(slot_total, 2 * list_total);
  if (H == 1) {
    EXPECT_EQ(slot_total, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PolicySweep,
                         ::testing::Combine(::testing::ValuesIn(kAllPolicies),
                                            ::testing::Values(1, 2, 4, 6, 16)));

TEST(Partition, EdgeCutSrcKeepsOutEdgesWithOwner) {
  Graph g = graph::erdos_renyi(60, 0.08, 9);
  Partition part(g, 4, Policy::kEdgeCutSrc);
  for (HostId h = 0; h < 4; ++h) {
    const auto& hg = part.host(h);
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      if (hg.local.out_degree(l) > 0) {
        EXPECT_EQ(part.master_host(hg.local_to_global[l]), h)
            << "edge-cut-src: only owned vertices may have out-edges";
      }
    }
  }
}

TEST(Partition, CartesianCutBoundsReplication) {
  // A vertex's proxies live only in its block row and block column:
  // replication <= pr + pc - 1.
  Graph g = graph::rmat({.scale = 8, .edge_factor = 8.0, .seed = 13});
  const HostId H = 16;
  Partition part(g, H, Policy::kCartesianVertexCut);
  const auto [pr, pc] = cartesian_grid(H);
  std::vector<int> copies(g.num_vertices(), 0);
  for (HostId h = 0; h < H; ++h) {
    for (VertexId gv : part.host(h).local_to_global) ++copies[gv];
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(copies[v], static_cast<int>(pr + pc - 1)) << v;
  }
}

TEST(Partition, GeneralVertexCutBalancesEdges) {
  Graph g = graph::rmat({.scale = 8, .edge_factor = 8.0, .seed = 17});
  Partition greedy(g, 8, Policy::kGeneralVertexCut);
  // The balance override caps runaway hosts near the slack bound, and the
  // replica affinity keeps replication well below a random assignment.
  EXPECT_LT(greedy.edge_balance(), 1.25);
  Partition random(g, 8, Policy::kRandomEdge);
  EXPECT_LT(greedy.replication_factor(), random.replication_factor());
}

TEST(Partition, ReplicationFactorSingleHostIsOne) {
  Graph g = graph::erdos_renyi(50, 0.1, 1);
  Partition part(g, 1, Policy::kCartesianVertexCut);
  EXPECT_DOUBLE_EQ(part.replication_factor(), 1.0);
  EXPECT_EQ(part.host(0).num_masters, g.num_vertices());
}

TEST(Partition, ReplicationGrowsWithHosts) {
  Graph g = graph::rmat({.scale = 8, .edge_factor = 8.0, .seed = 19});
  Partition p2(g, 2, Policy::kCartesianVertexCut);
  Partition p16(g, 16, Policy::kCartesianVertexCut);
  EXPECT_LT(p2.replication_factor(), p16.replication_factor());
}

TEST(Partition, IsolatedVerticesStillHaveMasters) {
  Graph g = graph::build_graph(10, {{0, 1}});  // vertices 2..9 isolated
  Partition part(g, 3, Policy::kEdgeCutSrc);
  std::size_t proxies = 0;
  for (HostId h = 0; h < 3; ++h) proxies += part.host(h).num_proxies();
  EXPECT_GE(proxies, 10u);
  for (VertexId v = 0; v < 10; ++v) {
    const HostId mh = part.master_host(v);
    EXPECT_NE(part.local_id(mh, v), graph::kInvalidVertex);
  }
}

TEST(Partition, PolicyNames) {
  EXPECT_EQ(to_string(Policy::kCartesianVertexCut), "cartesian-vertex-cut");
  EXPECT_EQ(to_string(Policy::kEdgeCutSrc), "edge-cut-src");
  EXPECT_EQ(to_string(Policy::kRandomEdge), "random-edge");
}

}  // namespace
}  // namespace mrbc::partition
