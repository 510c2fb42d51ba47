#include "partition/policies.h"

#include <algorithm>
#include <cassert>

#include "util/rng.h"

namespace mrbc::partition {

HostId block_owner(VertexId v, VertexId n, HostId num_hosts) {
  if (n == 0) return 0;
  // Contiguous blocks of size ceil(n/H) then floor(n/H); equivalent to the
  // standard balanced block distribution.
  const VertexId base = n / num_hosts;
  const VertexId extra = n % num_hosts;
  const VertexId boundary = extra * (base + 1);
  if (v < boundary) return static_cast<HostId>(v / (base + 1));
  return static_cast<HostId>(extra + (v - boundary) / std::max<VertexId>(base, 1));
}

std::pair<HostId, HostId> cartesian_grid(HostId num_hosts) {
  HostId pr = 1;
  for (HostId r = 1; r * r <= num_hosts; ++r) {
    if (num_hosts % r == 0) pr = r;
  }
  return {pr, num_hosts / pr};
}

namespace {

std::vector<HostId> assign_general_vertex_cut(const Graph& g, HostId num_hosts) {
  // Greedy PowerGraph-style heuristic: prefer hosts that already hold a
  // proxy of an endpoint; break ties (and the cold-start case) by load.
  const VertexId n = g.num_vertices();
  std::vector<HostId> assignment(g.num_edges());
  std::vector<EdgeId> load(num_hosts, 0);
  // replicas[v] = bitmask over hosts holding a proxy of v (num_hosts <= 64
  // is enough for the simulator; fall back to modulo hashing beyond that).
  assert(num_hosts <= 64 && "general vertex-cut supports up to 64 simulated hosts");
  std::vector<std::uint64_t> replicas(n, 0);
  // Balance override: replica affinity must not let any host run away from
  // the least-loaded one by more than this slack, or the cut degenerates on
  // skewed graphs (hubs pull every edge to one host).
  const EdgeId slack = std::max<EdgeId>(8, g.num_edges() / (16ull * num_hosts));
  EdgeId e = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.out_neighbors(u)) {
      const std::uint64_t both = replicas[u] & replicas[v];
      const std::uint64_t either = replicas[u] | replicas[v];
      const std::uint64_t candidates = both != 0 ? both : (either != 0 ? either : ~0ULL);
      HostId best = 0;
      EdgeId best_load = static_cast<EdgeId>(-1);
      HostId global_best = 0;
      EdgeId global_best_load = static_cast<EdgeId>(-1);
      for (HostId h = 0; h < num_hosts; ++h) {
        if (load[h] < global_best_load) {
          global_best_load = load[h];
          global_best = h;
        }
        if (((candidates >> h) & 1u) && load[h] < best_load) {
          best_load = load[h];
          best = h;
        }
      }
      if (best_load > global_best_load + slack) {
        best = global_best;
      }
      assignment[e++] = best;
      ++load[best];
      replicas[u] |= 1ULL << best;
      replicas[v] |= 1ULL << best;
    }
  }
  return assignment;
}

}  // namespace

std::vector<HostId> assign_edges(const Graph& g, HostId num_hosts, Policy policy) {
  const VertexId n = g.num_vertices();
  std::vector<HostId> assignment(g.num_edges());
  switch (policy) {
    case Policy::kEdgeCutSrc: {
      EdgeId e = 0;
      for (VertexId u = 0; u < n; ++u) {
        const HostId h = block_owner(u, n, num_hosts);
        for (std::size_t i = 0; i < g.out_degree(u); ++i) assignment[e++] = h;
      }
      break;
    }
    case Policy::kEdgeCutDst: {
      EdgeId e = 0;
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v : g.out_neighbors(u)) assignment[e++] = block_owner(v, n, num_hosts);
      }
      break;
    }
    case Policy::kCartesianVertexCut: {
      const auto [pr, pc] = cartesian_grid(num_hosts);
      EdgeId e = 0;
      for (VertexId u = 0; u < n; ++u) {
        // Host grid position: row from u's owner, column from v's owner.
        const HostId row = block_owner(u, n, num_hosts) / pc;
        for (VertexId v : g.out_neighbors(u)) {
          const HostId col = block_owner(v, n, num_hosts) % pc;
          assignment[e++] = row * pc + col;
        }
      }
      (void)pr;
      break;
    }
    case Policy::kGeneralVertexCut:
      return assign_general_vertex_cut(g, num_hosts);
    case Policy::kRandomEdge: {
      util::Xoshiro256 rng(0x5eed5eedULL);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        assignment[e] = static_cast<HostId>(rng.next_bounded(num_hosts));
      }
      break;
    }
  }
  return assignment;
}

HostId handoff_owner(HostId logical, const std::vector<HostId>& alive) {
  assert(!alive.empty() && "handoff needs at least one survivor");
  HostId best = alive.front();
  std::uint64_t best_weight = 0;
  for (HostId candidate : alive) {
    util::SplitMix64 mix((static_cast<std::uint64_t>(logical) << 32) |
                         (static_cast<std::uint64_t>(candidate) + 1));
    const std::uint64_t weight = mix.next();
    if (weight > best_weight || (weight == best_weight && candidate < best)) {
      best_weight = weight;
      best = candidate;
    }
  }
  return best;
}

std::string to_string(Policy policy) {
  switch (policy) {
    case Policy::kEdgeCutSrc: return "edge-cut-src";
    case Policy::kEdgeCutDst: return "edge-cut-dst";
    case Policy::kCartesianVertexCut: return "cartesian-vertex-cut";
    case Policy::kGeneralVertexCut: return "general-vertex-cut";
    case Policy::kRandomEdge: return "random-edge";
  }
  return "?";
}

}  // namespace mrbc::partition
