#pragma once
// Graph partitioning with master/mirror proxies, following the Gluon
// partitioning abstraction the paper's implementation runs on (Section 4.1):
// edges are distributed among hosts by a policy; each host materializes
// proxy vertices for the endpoints of its edges; one proxy per vertex is
// the master, the rest are mirrors reconciled during communication.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace mrbc::partition {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

using HostId = std::uint32_t;

/// Partitioning policies evaluated in the paper (Section 4.1 / 5.2).
enum class Policy {
  kEdgeCutSrc,         ///< edge (u,v) lives with u's owner ("outgoing edge-cut")
  kEdgeCutDst,         ///< edge (u,v) lives with v's owner ("incoming edge-cut")
  kCartesianVertexCut, ///< 2D checkerboard cut; the paper's at-scale choice
  kGeneralVertexCut,   ///< greedy PowerGraph-style hybrid cut
  kRandomEdge,         ///< uniform random edge assignment (worst-case baseline)
};

std::string to_string(Policy policy);

/// One host's slice of the partitioned graph.
struct HostGraph {
  Graph local;                        ///< CSR over local vertex ids
  std::vector<VertexId> local_to_global;
  std::vector<bool> is_master;        ///< per local vertex
  VertexId num_masters = 0;

  VertexId num_proxies() const { return static_cast<VertexId>(local_to_global.size()); }
};

/// One exchange-list position of a proxy: the host at the other end of the
/// list, the proxy's index in it, and whether the list's mirror proxy of
/// this vertex has a local in-edge (the same bit on both ends). The bit
/// shares the peer's word, so the slot table stays 8 bytes per slot.
struct Slot {
  HostId peer : 31 = 0;
  bool mirror_has_in_edges : 1 = false;
  std::uint32_t index = 0;
};
static_assert(sizeof(Slot) == 8);

/// Full partition of a graph over `num_hosts` hosts, plus the exchange
/// structure the communication substrate uses to reconcile proxies.
class Partition {
 public:
  /// Partitions `g` over `num_hosts` hosts with `policy`. The global graph
  /// is not retained. Vertices with no incident edges still get a master
  /// proxy on their owner so label arrays stay total.
  Partition(const Graph& g, HostId num_hosts, Policy policy);

  HostId num_hosts() const { return static_cast<HostId>(hosts_.size()); }
  VertexId num_global_vertices() const { return n_global_; }
  EdgeId num_global_edges() const { return m_global_; }
  Policy policy() const { return policy_; }

  const HostGraph& host(HostId h) const { return hosts_[h]; }

  /// Host owning (holding the master proxy of) global vertex v.
  HostId master_host(VertexId global_v) const { return master_host_[global_v]; }

  /// Local id of global vertex v on host h, or graph::kInvalidVertex if no
  /// proxy exists there.
  VertexId local_id(HostId h, VertexId global_v) const { return global_to_local_[h][global_v]; }

  /// Exchange lists: for ordered host pair (mirror host mh -> master host
  /// oh), mirror_lids(mh, oh)[i] on mh corresponds to master_lids(mh, oh)[i]
  /// on oh. Both lists are in ascending global-id order.
  const std::vector<VertexId>& mirror_lids(HostId mirror_host, HostId master_host) const {
    return mirror_lids_[mirror_host][master_host];
  }
  const std::vector<VertexId>& master_lids(HostId mirror_host, HostId master_host) const {
    return master_lids_[mirror_host][master_host];
  }

  /// The exchange lists inverted, built once with them: the slots of proxy
  /// `lid` on host h. A mirror has one slot, {its master host, its index in
  /// mirror_lids(h, peer)}. A master has one slot per host holding a mirror
  /// of it, in ascending peer order: {that host, its index in
  /// master_lids(peer, h)}. Each slot also says whether that mirror has an
  /// in-edge on its host. A 1-host partition has no slots.
  std::span<const Slot> slots(HostId h, VertexId lid) const {
    const std::vector<std::size_t>& off = slot_offsets_[h];
    return {slots_[h].data() + off[lid], off[lid + 1] - off[lid]};
  }

  /// Total proxies across hosts divided by |V|; 1.0 means no replication.
  double replication_factor() const;

  /// max/mean of per-host edge counts.
  double edge_balance() const;

  /// max/mean of per-host master counts.
  double master_balance() const;

 private:
  void build(const Graph& g, Policy policy);

  VertexId n_global_ = 0;
  EdgeId m_global_ = 0;
  Policy policy_;
  std::vector<HostGraph> hosts_;
  std::vector<HostId> master_host_;
  std::vector<std::vector<VertexId>> global_to_local_;          // [host][global] -> local
  std::vector<std::vector<std::vector<VertexId>>> mirror_lids_; // [mh][oh] -> lids on mh
  std::vector<std::vector<std::vector<VertexId>>> master_lids_; // [mh][oh] -> lids on oh
  std::vector<std::vector<std::size_t>> slot_offsets_;          // [host][lid] -> CSR row start
  std::vector<std::vector<Slot>> slots_;                        // [host] -> slots, by lid
};

/// Block owner used by the cut policies: global vertex ids are split into
/// num_hosts contiguous blocks of near-equal size.
HostId block_owner(VertexId v, VertexId n, HostId num_hosts);

/// Chooses a pr x pc grid with pr*pc == num_hosts and pr <= pc, pr maximal.
std::pair<HostId, HostId> cartesian_grid(HostId num_hosts);

}  // namespace mrbc::partition
