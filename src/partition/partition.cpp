#include "partition/partition.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/builder.h"
#include "partition/policies.h"
#include "util/stats.h"

namespace mrbc::partition {

Partition::Partition(const Graph& g, HostId num_hosts, Policy policy)
    : n_global_(g.num_vertices()), m_global_(g.num_edges()), policy_(policy) {
  assert(num_hosts >= 1);
  hosts_.resize(num_hosts);
  build(g, policy);
}

void Partition::build(const Graph& g, Policy policy) {
  const HostId H = num_hosts();
  const VertexId n = n_global_;

  // Masters are always block-distributed by vertex id, independent of the
  // edge policy; this matches Gluon, where the partitioner may place edges
  // anywhere but each vertex's canonical copy is at its block owner.
  master_host_.resize(n);
  for (VertexId v = 0; v < n; ++v) master_host_[v] = block_owner(v, n, H);

  const std::vector<HostId> edge_host = assign_edges(g, H, policy);

  // Pass 1: discover the proxy set of every host. A host gets a proxy for
  // each endpoint of each of its edges, and the master host always gets one.
  global_to_local_.assign(H, std::vector<VertexId>(n, graph::kInvalidVertex));
  auto add_proxy = [this](HostId h, VertexId gv) {
    if (global_to_local_[h][gv] == graph::kInvalidVertex) {
      global_to_local_[h][gv] = static_cast<VertexId>(hosts_[h].local_to_global.size());
      hosts_[h].local_to_global.push_back(gv);
    }
  };
  for (VertexId v = 0; v < n; ++v) add_proxy(master_host_[v], v);
  {
    EdgeId e = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.out_neighbors(u)) {
        add_proxy(edge_host[e], u);
        add_proxy(edge_host[e], v);
        ++e;
      }
    }
  }

  // Pass 2: per-host local edge lists and local CSR graphs.
  std::vector<std::vector<graph::Edge>> local_edges(H);
  {
    EdgeId e = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.out_neighbors(u)) {
        const HostId h = edge_host[e++];
        local_edges[h].push_back({global_to_local_[h][u], global_to_local_[h][v]});
      }
    }
  }
  for (HostId h = 0; h < H; ++h) {
    auto& hg = hosts_[h];
    hg.local = graph::build_graph(hg.num_proxies(), std::move(local_edges[h]));
    hg.is_master.assign(hg.num_proxies(), false);
    for (VertexId l = 0; l < hg.num_proxies(); ++l) {
      if (master_host_[hg.local_to_global[l]] == h) {
        hg.is_master[l] = true;
        ++hg.num_masters;
      }
    }
  }

  // Pass 3: exchange lists, ascending global-id order for determinism, and
  // each proxy's slot count for the slot table.
  mirror_lids_.assign(H, std::vector<std::vector<VertexId>>(H));
  master_lids_.assign(H, std::vector<std::vector<VertexId>>(H));
  slot_offsets_.resize(H);
  for (HostId h = 0; h < H; ++h) slot_offsets_[h].assign(hosts_[h].num_proxies() + 1, 0);
  for (HostId mh = 0; mh < H; ++mh) {
    const auto& hg = hosts_[mh];
    // local_to_global is in insertion order; sort indices by global id.
    std::vector<VertexId> order(hg.num_proxies());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&hg](VertexId a, VertexId b) {
      return hg.local_to_global[a] < hg.local_to_global[b];
    });
    for (VertexId l : order) {
      if (hg.is_master[l]) continue;
      const VertexId gv = hg.local_to_global[l];
      const HostId oh = master_host_[gv];
      mirror_lids_[mh][oh].push_back(l);
      master_lids_[mh][oh].push_back(global_to_local_[oh][gv]);
      ++slot_offsets_[mh][l + 1];
      ++slot_offsets_[oh][global_to_local_[oh][gv] + 1];
    }
  }

  // Pass 4: the slot table, a CSR per host. The counts become row starts;
  // filling in (mirror host, master host) order makes every master's slots
  // ascend by peer. Both ends of a pair record whether the mirror has a
  // local in-edge.
  slots_.resize(H);
  std::vector<std::vector<std::size_t>> cursor(H);
  for (HostId h = 0; h < H; ++h) {
    std::vector<std::size_t>& off = slot_offsets_[h];
    std::partial_sum(off.begin(), off.end(), off.begin());
    slots_[h].resize(off.back());
    cursor[h].assign(off.begin(), off.end() - 1);
  }
  for (HostId mh = 0; mh < H; ++mh) {
    for (HostId oh = 0; oh < H; ++oh) {
      const std::vector<VertexId>& mirrors = mirror_lids_[mh][oh];
      const std::vector<VertexId>& masters = master_lids_[mh][oh];
      for (std::uint32_t i = 0; i < mirrors.size(); ++i) {
        const bool in_edges = hosts_[mh].local.in_degree(mirrors[i]) != 0;
        slots_[mh][cursor[mh][mirrors[i]]++] = {oh, in_edges, i};
        slots_[oh][cursor[oh][masters[i]]++] = {mh, in_edges, i};
      }
    }
  }
}

double Partition::replication_factor() const {
  std::size_t proxies = 0;
  for (const auto& hg : hosts_) proxies += hg.num_proxies();
  return n_global_ ? static_cast<double>(proxies) / static_cast<double>(n_global_) : 0.0;
}

double Partition::edge_balance() const {
  std::vector<double> per_host;
  per_host.reserve(hosts_.size());
  for (const auto& hg : hosts_) per_host.push_back(static_cast<double>(hg.local.num_edges()));
  return util::imbalance(per_host);
}

double Partition::master_balance() const {
  std::vector<double> per_host;
  per_host.reserve(hosts_.size());
  for (const auto& hg : hosts_) per_host.push_back(static_cast<double>(hg.num_masters));
  return util::imbalance(per_host);
}

}  // namespace mrbc::partition
