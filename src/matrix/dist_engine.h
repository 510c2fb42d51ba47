#pragma once
// Replicated MFBC iteration engine: the communication-avoiding distributed
// backend behind baselines/mfbc.cpp. One instance simulates all H hosts of
// a ProcessGrid and drives every byte of inter-host traffic through
// comm::Substrate::scatter, so the delivery layer's framing, codec, fault
// injection, and reliable retransmission apply to MFBC exactly as they do
// to MRBC.
//
// Per forward iteration (the backward levels mirror it):
//   1. sweep    — host (r, l) runs a frontier-sparsity-aware SpMSpV over
//                 its (row r, layer l) tile: only its layer's slice of the
//                 sorted frontier is traversed, partial (dist, sigma)
//                 products accumulate in dense row-block scratch, and
//                 partials that cannot improve the replica's table copy are
//                 filtered before they ever reach a wire.
//   2. all-reduce — the c members of each replica group exchange partials
//                 (c-1 peer messages each) and merge them into the group's
//                 row-block table; at c = 1 this phase moves zero bytes.
//   3. broadcast — changed (vertex, source) cells are re-sharded along the
//                 layer dimension. After the all-reduce every group member
//                 holds the merged changed list, so the send load splits c
//                 ways: member (r, l') ships an equal 1/c chunk of each
//                 target layer's slice to the pr-1 other rows — the 2.5D
//                 trick that cuts the *per-host* broadcast egress (which is
//                 what the BSP network model charges) by c, not just the
//                 aggregate. At c = 1 this is the historical (H-1)-way
//                 frontier allgather, entry for entry and byte for byte.
// Each iteration and each backward level is one sim::BspLoop round: the
// sweep is its compute phase, and steps 2-3 on the previous sweep's output
// are its comm phase (the exchange), so a batch's first round exchanges
// nothing and sweeps the seeded sources.
//
// Replica state is stored once per group (the replicas are bit-identical by
// construction); the c-fold memory cost of real replication is analytical
// (docs/ARCHITECTURE.md). Wherever a message crosses the simulated wire,
// one designated receiver deserializes it and that decoded copy — not the
// sender's local state — feeds the next phase, so corruption/drop/rollback
// schedules exercise the same data path the real system would.
//
// Floating-point determinism across c, H, and thread counts: the forward
// monoid is exact (integer min; sigma sums of integral doubles), so any
// merge grouping yields the same bits. Backward delta sums are not
// associative, so their canonical value is defined structurally: each
// level's contribution to a cell is a balanced pairwise tree over the
// ProcessGrid::kColumnPanels fixed column panels, with absent panels
// contributing +0.0 (bit-exact-neutral for the non-negative partials BC
// produces). Every layer owns a complete aligned subtree of panels, so each
// host reduces its own panels locally and the cross-layer merge evaluates
// only the tree's upper levels — identical bits for every legal c.

#include <cstdint>
#include <utility>
#include <vector>

#include "comm/substrate.h"
#include "engine/cluster.h"
#include "graph/graph.h"
#include "matrix/dist_matrix.h"
#include "matrix/grid.h"
#include "util/serialize.h"

namespace mrbc::matrix {

/// One (vertex, source) table cell: the tentative distance and the number
/// of shortest paths at that distance.
struct DistSigma {
  std::uint32_t dist = graph::kInfDist;
  double sigma = 0.0;

  friend bool operator==(const DistSigma&, const DistSigma&) = default;
};

struct DistBcOptions {
  HostId num_hosts = 4;
  /// Replica-group width c; see ProcessGrid::make for the legality rules.
  HostId replication = 1;
  /// Shared with the BspLoop that drives the engine: parallel_hosts also
  /// runs the (group-disjoint) merges on the pool, and delivery() — fault
  /// injector and codec — configures all scatter traffic.
  sim::ClusterOptions cluster;
};

class DistBcEngine final : public sim::Checkpointable {
 public:
  DistBcEngine(const Graph& g, const DistBcOptions& opts);

  const ProcessGrid& grid() const { return grid_; }

  /// Resets per-batch state and seeds the frontier with the batch sources.
  void begin_batch(const std::vector<VertexId>& batch);

  /// A forward round: the exchange of the partials in flight into the next
  /// frontier, then host h's sweep, active while it leaves partials.
  comm::SyncStats forward_exchange();
  sim::HostWork forward_sweep(HostId h);
  /// Largest finalized distance seen so far (final after the forward phase).
  std::uint32_t max_level() const { return max_level_; }

  /// Starts the backward phase at level max_level() (>= 1).
  void begin_backward();
  /// A backward round: reduce_delta_partials and the broadcast of the next
  /// level down, then host h's sweep, active while a lower level remains.
  comm::SyncStats backward_exchange();
  sim::HostWork backward_sweep(HostId h);
  /// All-reduces the delta partials in flight and merges them by a balanced
  /// cross-layer tree per cell. The last level's (the sources' delta) has
  /// no later round to ride in: the driver runs it after the loop.
  comm::SyncStats reduce_delta_partials();

  const DistSigma& table_at(VertexId v, std::size_t sidx) const {
    return table_[static_cast<std::size_t>(v) * k_ + sidx];
  }
  double delta_at(VertexId v, std::size_t sidx) const {
    return delta_[static_cast<std::size_t>(v) * k_ + sidx];
  }

  /// A round-end snapshot holds what the next round reads: the tables, the
  /// frontier and the partials in flight, the backward level cursor, and
  /// the delivery protocol's sequence numbers, rolled back as one unit. The
  /// backward level index is derived from the tables and rebuilt after a
  /// restore, never saved. Restore assumes an engine built with the same
  /// graph and options.
  void save_checkpoint(util::SendBuffer& buf) const override;
  void restore_checkpoint(util::RecvBuffer& buf) override;

 private:
  /// One frontier / partial-product entry; `val` carries (dist, sigma) in
  /// the forward phases and (level, m = (1 + delta)/sigma) backward.
  struct Entry {
    VertexId v = 0;
    std::uint32_t sidx = 0;
    DistSigma val;
  };
  struct DeltaPartial {
    VertexId v = 0;
    std::uint32_t sidx = 0;
    double value = 0.0;
  };
  struct HostScratch {
    std::vector<DistSigma> cells;     ///< row-block forward partials
    std::vector<std::uint8_t> mark;   ///< touched-cell dedupe
    std::vector<std::pair<VertexId, std::uint32_t>> touched;
    std::vector<double> panels;       ///< row-block x panels_per_layer delta partials
  };

  std::vector<std::vector<util::SendBuffer>> make_buffers() const;
  void write_entries(util::SendBuffer& buf, const Entry* entries, std::size_t count) const;
  void read_entries(util::RecvBuffer& buf, std::vector<Entry>& out) const;
  /// Copies out[first], host h's message to one member of its replica
  /// group, to h's other group members: an all-reduce sends every peer the
  /// same bytes, so each payload is encoded once.
  void copy_to_group(std::vector<util::SendBuffer>& out, HostId h, HostId first) const;
  /// Contiguous per-layer slice boundaries of a (v, sidx)-sorted span
  /// (vertex_layer is monotone in v). Returns layers+1 offsets.
  std::vector<std::size_t> layer_slices(const Entry* list, std::size_t count) const;
  /// Queues group r's column broadcast: each target layer's slice of the
  /// (v, sidx)-sorted `base` list is split into c equal contiguous chunks,
  /// and member (r, l') ships chunk l' to the pr-1 other rows of the target
  /// layer (all members hold the merged list, so any of them can send any
  /// part of it).
  void queue_column_broadcast(std::vector<std::vector<util::SendBuffer>>& buffers, HostId r,
                              const Entry* base, const std::vector<std::size_t>& slices) const;
  /// Scatter callback staging one decoded copy of every broadcast chunk
  /// into staged_slices_[src * layers + target_layer].
  void stage_broadcast_chunk(HostId src, HostId dst, util::RecvBuffer& rbuf);
  /// Appends the reassembled (r, l) slice — the c staged chunks in member
  /// order — to `out`; `local` is the sender-side fallback when pr == 1
  /// (no wire crossed).
  void append_slice(std::vector<Entry>& out, HostId r, HostId l, const Entry* local_base,
                    const std::vector<std::size_t>& local_slices) const;
  /// Counting-sorts the finite cells with 1 <= dist <= max_level_ by
  /// distance into level_cells_, each level in (v, sidx) order.
  void build_level_index();
  /// Floors each host's messages at the control-plane ping to its (c-1)
  /// group and (pr-1) layer peers that every round pays, payload or none.
  comm::SyncStats with_control_plane(comm::SyncStats stats) const;

  DistBcOptions opts_;
  ProcessGrid grid_;
  DistMatrix mat_;
  comm::Substrate net_;
  VertexId n_;
  std::size_t k_ = 0;
  std::vector<VertexId> batch_;
  std::vector<DistSigma> table_;  ///< n x k group tables (replicas coincide)
  std::vector<double> delta_;     ///< n x k group dependency tables
  std::vector<Entry> frontier_;   ///< (v, sidx)-sorted forward frontier
  std::vector<std::vector<Entry>> partials_;               // per host: forward partials in flight
  std::vector<std::vector<DeltaPartial>> delta_partials_;  // per host: delta partials in flight
  std::uint32_t max_level_ = 0;
  std::uint32_t level_ = 0;  ///< next backward level to fire; 0 once all fired
  /// Backward level index, built by the first backward exchange of a batch:
  /// level d's cells are level_cells_[level_start_[d], level_start_[d + 1]).
  /// Empty until built; begin_batch (and so restore) clears it.
  std::vector<std::size_t> level_start_;
  std::vector<std::pair<VertexId, std::uint32_t>> level_cells_;
  /// Layer slices of what the next sweep reads, set by every exchange.
  std::vector<std::size_t> sweep_slices_;

  // Persistent scratch (allocation reused across rounds and batches).
  std::vector<HostScratch> scratch_;                  // per host
  std::vector<std::vector<Entry>> staged_entries_;    // per src host: decoded at group leader
  std::vector<std::vector<Entry>> group_changed_;     // per group: merged changed cells
  std::vector<std::vector<Entry>> staged_slices_;     // [src * layers + target layer]: chunk
  std::vector<std::vector<DeltaPartial>> staged_delta_;    // per src host
  std::vector<Entry> bwd_frontier_;
  std::vector<Entry> used_frontier_;
};

}  // namespace mrbc::matrix
