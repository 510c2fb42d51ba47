#pragma once
// Gluon-style communication substrate over a Partition (Dathathri et al.,
// PLDI'18 — the layer the paper's D-Galois implementation runs on).
//
// Proxy labels are reconciled in two phases:
//   reduce:    mirrors send their (flagged) values to the master, which
//              combines them with an application reduction; mirror values
//              are reset to the reduction identity after sending (Gluon's
//              reduce-reset semantics, which is what makes partial sigma /
//              delta sums safe to add).
//   broadcast: masters send their (flagged) final values to the mirrors
//              whose operator reads them: every mirror, or only the
//              mirrors with a local in-edge when the accessor says its
//              operator reads broadcasts through in-edges (Gluon's
//              structural-invariant optimization; see Substrate).
//
// Update tracking: the application sets per-proxy flags; only flagged
// entries are serialized. Metadata compression is modelled exactly as in
// Gluon: each host-pair message carries a bitset over the exchange list
// marking which entries are present, plus the packed values.
//
// All traffic flows through real serialization buffers so byte counts are
// measured, not estimated.
//
// Delivery modes: by default the simulated wire is lossless and messages
// are applied directly (zero framing overhead — byte counts match Gluon's
// payload accounting). When DeliveryOptions sets a fault source or
// reliable delivery, the substrate frames every host-pair message as
// [seq:u64][crc32:u32][payload] and can run a reliable-delivery protocol
// against the injected fault model:
//   - CRC32 over the payload detects corruption (frames failing the check
//     are counted and discarded, never applied);
//   - per-(src,dst) sequence numbers suppress duplicate deliveries;
//   - in reliable mode, lost/corrupt frames are retransmitted with
//     exponential backoff, bounded by kMaxDeliveryAttempts; the final attempt
//     models an escalated verified path so delivery is guaranteed, which
//     is what keeps the MRBC delayed-synchronization schedule (every label
//     arrives in its prescribed round, Lemmas 7-8) intact under faults.
// Retransmit/duplicate traffic is accounted separately in SyncStats so the
// engine's NetworkModel can cost it without distorting the headline
// payload-byte comparisons.
//
// Execution: reduce and broadcast are one routine (exchange) that differs
// only in direction and in the accessor's body kind (see Substrate). A
// phase costs O(flagged proxies + H^2), not O(exchange-list lengths), and
// one with no flag set returns at once. Phase A1 walks each host's set
// flags, hosts in parallel, and marks each flag's exchange-list positions
// (Partition::slots) in per-list presence bitsets. Phase A2 serializes only
// the marked lists, as (src, dst) pair messages, src-major, fanned out
// across the shared util::ThreadPool — every list position belongs to one
// pair and reduce-reset touches only that pair's mirrors, so any
// interleaving serializes identical bytes — into per-pair SendBuffers that
// keep their allocations across rounds. Phase B delivers the same pair list
// sequentially, so ChannelFaults consultation order, sequence numbers,
// SyncStats accounting, and apply order are all bit-identical to the
// single-threaded engine.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partition.h"
#include "util/bitset.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace mrbc::comm {

using partition::HostId;
using partition::Partition;
using partition::VertexId;

/// Gluon metadata compression: the presence set of a host-pair message is
/// encoded either as a bitset over the exchange list or as an explicit
/// offset list, whichever is smaller on the wire (dense rounds favor the
/// bitset, sparse rounds the offsets).
namespace detail {

inline void write_presence(CodecWriter& w, const util::DynamicBitset& present,
                           std::size_t count) {
  const std::size_t bitset_bytes = 8 + present.byte_size();
  if (!compress_metadata(w.mode())) {
    const std::size_t offsets_bytes = 8 + count * sizeof(std::uint32_t);
    if (bitset_bytes <= offsets_bytes) {
      w.u8(0);
      w.buffer().write_bitset(present);
    } else {
      w.u8(1);
      std::vector<std::uint32_t> offsets;
      offsets.reserve(count);
      present.for_each_set_bit(
          [&](std::size_t i) { offsets.push_back(static_cast<std::uint32_t>(i)); });
      w.buffer().write_vector(offsets);
    }
    return;
  }
  // Compressed metadata: the offset list is delta + varint encoded, so
  // compare the bitset against the *encoded* list size — sparse rounds tip
  // toward offsets much earlier than under fixed-width accounting.
  std::vector<std::uint32_t> offsets;
  offsets.reserve(count);
  present.for_each_set_bit(
      [&](std::size_t i) { offsets.push_back(static_cast<std::uint32_t>(i)); });
  std::size_t offsets_bytes = util::varint_size(offsets.size());
  std::uint32_t prev = 0;
  for (std::uint32_t v : offsets) {
    offsets_bytes += util::varint_size(v - prev);
    prev = v;
  }
  if (bitset_bytes <= offsets_bytes) {
    w.u8(0);
    w.buffer().write_bitset(present);
  } else {
    w.u8(1);
    w.sorted_u32_list(offsets);
  }
}

/// Invokes fn(index) for each present position of an exchange list of
/// length `n`, in order. The presence encoding is fully consumed before the
/// first fn call, so a message body following it in the same buffer can be
/// read inside fn. What write_presence never writes is a corrupted frame: a
/// tag above 1, a position at or past `n`, or an offset list that does not
/// strictly ascend (a repeated offset would apply one slot twice).
template <typename Fn>
void read_presence(CodecReader& r, std::size_t n, Fn&& fn) {
  const auto tag = r.u8();
  if (tag == 0) {
    util::DynamicBitset present = r.buffer().read_bitset();
    if (present.size() > n) {
      throw std::out_of_range("substrate: presence bitset longer than the exchange list");
    }
    present.for_each_set_bit(fn);
  } else if (tag == 1) {
    std::size_t next = 0;  // the lowest offset that still ascends
    for (std::uint32_t i : r.sorted_u32_list()) {
      if (i >= n) throw std::out_of_range("substrate: presence offset past the exchange list");
      if (i < next) throw std::out_of_range("substrate: presence offsets do not ascend");
      next = std::size_t{i} + 1;
      fn(i);
    }
  } else {
    throw std::out_of_range("substrate: unknown presence tag");
  }
}

/// Decodes a fixed-Value message (presence, then one ValueCodec plane) over
/// an exchange list of length `n`: fn(index, value) per present entry, in
/// order. A plane whose length differs from the presence count is a
/// corrupted frame.
template <typename Value, typename Fn>
void read_value_message(CodecReader& r, std::size_t n, Fn&& fn) {
  std::vector<std::size_t> indices;
  read_presence(r, n, [&](std::size_t i) { indices.push_back(i); });
  const std::vector<Value> values = ValueCodec<Value>::read_plane(r);
  if (values.size() != indices.size()) {
    throw std::out_of_range("substrate: value plane length does not match the presence count");
  }
  for (std::size_t k = 0; k < indices.size(); ++k) fn(indices[k], values[k]);
}

}  // namespace detail

/// Message-level fault source consulted by the delivery layer. Implemented
/// by sim::FaultInjector; the interface lives here so the comm layer does
/// not depend on the engine. All methods are called in a deterministic
/// order (host-pair loops are sequential), so seeded implementations give
/// reproducible fault schedules.
class ChannelFaults {
 public:
  virtual ~ChannelFaults() = default;
  /// True: this transmission attempt is lost on the wire.
  virtual bool drop(HostId src, HostId dst, std::uint64_t seq) = 0;
  /// True: the frame is delivered twice.
  virtual bool duplicate(HostId src, HostId dst, std::uint64_t seq) = 0;
  /// Bit index (into the payload) to flip in transit, or -1 for a clean
  /// delivery. Only payload bits are damaged, which CRC32 always detects.
  virtual long corrupt_bit(HostId src, HostId dst, std::uint64_t seq,
                           std::size_t payload_bytes) = 0;
};

/// Configuration of the delivery layer. Defaults reproduce the historical
/// lossless direct-apply path bit-for-bit (no framing bytes); a fault
/// source or reliable delivery frames every host-pair message as
/// [seq][crc32][payload] (12 bytes more per message).
struct DeliveryOptions {
  /// Retransmit lost/corrupt frames until delivered (bounded by
  /// Substrate::kMaxDeliveryAttempts; the last attempt is escalated and
  /// cannot fail).
  bool reliable = false;
  /// Fault source, or nullptr for a clean wire. Non-owning.
  ChannelFaults* faults = nullptr;
  /// Wire codec for message metadata and payload planes (see comm/codec.h).
  /// kRaw reproduces the historical fixed-width bytes exactly; the other
  /// modes shrink the wire without changing any decoded value. Ablatable
  /// like delayed sync — decoded state is bit-identical across modes.
  CodecMode codec = CodecMode::kRaw;
};

/// Accounting for one or more sync phases.
struct SyncStats {
  std::size_t messages = 0;  ///< aggregated host-pair messages (Gluon sends one per pair per phase)
  std::size_t bytes = 0;     ///< serialized payload + metadata bytes (first transmission)
  /// Fixed-width-equivalent bytes of the same messages: what the chosen
  /// encodings would have cost without the codec. raw_bytes == bytes under
  /// kRaw; raw_bytes / bytes is the achieved compression ratio otherwise.
  /// (Not exactly "kRaw's bytes" — the adaptive presence pick can differ
  /// per mode, so the denominator tracks the encoding actually sent.)
  std::size_t raw_bytes = 0;
  std::size_t values = 0;  ///< proxy labels moved
  // Both per-host vectors are empty after an exchange that sent nothing.
  std::vector<std::size_t> bytes_per_host;  ///< egress bytes per host (network model input)
  std::vector<std::size_t> msgs_per_host;   ///< egress messages per host

  // Post-handoff locality (degraded mode): host-pair messages whose
  // endpoints share a physical host never cross the wire; they are applied
  // directly and accounted here instead of in messages/bytes.
  std::size_t local_messages = 0;  ///< pair messages short-circuited on one physical host
  std::size_t local_bytes = 0;     ///< their payload bytes (no framing, no wire)

  // Fault/recovery counters (all zero on a clean wire).
  std::size_t drops = 0;                  ///< transmission attempts lost in transit
  std::size_t duplicates = 0;             ///< frames the wire delivered twice
  std::size_t duplicates_suppressed = 0;  ///< stale-seq frames rejected by the receiver
  std::size_t corruptions_detected = 0;   ///< CRC32 mismatches (frame discarded)
  std::size_t retransmits = 0;            ///< extra transmission attempts
  std::size_t retransmit_bytes = 0;       ///< bytes of retransmit + duplicate traffic
  std::size_t backoff_steps = 0;          ///< sum of 2^(attempt-2) RTO units across retransmits
  std::size_t forced_deliveries = 0;      ///< escalated final attempts (retry budget exhausted)

  SyncStats& operator+=(const SyncStats& other);
};

/// Per-host flag sets plus the reduce/broadcast engine.
///
/// reduce/broadcast/sync take an Accessor of one of two kinds, told apart at
/// compile time by whether it declares a Value type.
///
/// Fixed-size labels: one Value per proxy; a message body is one
/// ValueCodec<Value> plane.
///   using Value = <trivially copyable>;
///   Value get(HostId h, VertexId lid);                 // read proxy label
///   void reduce(HostId h, VertexId lid, Value v);      // combine into master
///   void set(HostId h, VertexId lid, Value v);         // overwrite mirror
///   void reset(HostId h, VertexId lid);                // mirror -> identity
///
/// Per-vertex lists: no Value; the accessor owns each proxy's wire format
/// through the mode-aware codec (field-class methods pick varint/tagged
/// encodings per DeliveryOptions::codec). MRBC syncs this way: the set of
/// (source, dist, sigma) entries that finalized differs per vertex and round.
///   void serialize_reduce(HostId h, VertexId lid, CodecWriter&);
///       (must also reset the mirror's contribution — reduce-reset)
///   void apply_reduce(HostId h, VertexId lid, CodecReader&);
///   void serialize_broadcast(HostId h, VertexId lid, CodecWriter&);
///       (called once per mirror host; must not mutate)
///   void apply_broadcast(HostId h, VertexId lid, CodecReader&);
///
/// For both kinds, get/reset and serialize_* run concurrently across host
/// pairs and may touch only the proxy they serialize. reduce/set and
/// apply_* run sequentially, after the phase has consumed every host's
/// flags, and must not set reduce flags: reduce receivers are masters.
///
/// Broadcast flags: a fixed-Value accessor's reduced value is what its
/// masters broadcast, so the reduce phase flags every master it reduced
/// into (or that was itself reduce-flagged) for the next broadcast. A list
/// accessor flags its own broadcasts (MRBC stages exactly the entries that
/// fire); the reduce phase never flags one for it.
///
/// Broadcast scope: an accessor whose operator reads a broadcast value only
/// by walking the receiving proxy's local in-edges declares
///   static constexpr bool kReadsBroadcastsThroughInEdges = true;
/// and its broadcasts then go only to mirrors with a local in-edge
/// (Partition::Slot::mirror_has_in_edges); a pair list with no such mirror
/// flagged sends no message. Messages keep the same presence encoding and
/// body layout. Other accessors broadcast to every mirror.
///
/// A phase walks only the set flags, so its cost follows the updated
/// proxies; with no flag set it sends, allocates and dispatches nothing.
class Substrate {
 public:
  explicit Substrate(const Partition& part);

  /// Partition-free substrate for pure point-to-point use (scatter): the
  /// distributed matrix backend routes all of its traffic this way and has
  /// no proxy exchange lists. reduce/broadcast must not be called on a
  /// substrate built like this; scatter, delivery configuration, placement,
  /// and save/restore work identically (flags serialize as empty sets).
  explicit Substrate(HostId num_hosts);

  const Partition& partition() const { return *part_; }

  /// Installs a delivery configuration (resets sequence-number state).
  void set_delivery(const DeliveryOptions& options);
  const DeliveryOptions& delivery() const { return delivery_; }

  /// Installs a logical→physical placement after an ownership handoff
  /// (sim::Membership::logical_to_physical()). Pair messages whose
  /// endpoints are co-located on one physical host bypass the wire
  /// entirely — no framing, faults, sequence numbers, or byte accounting;
  /// they count as SyncStats::local_messages/local_bytes. The decoded
  /// values are identical either way (reliable delivery already guarantees
  /// exactly-once application), so results stay bit-identical to the
  /// healthy cluster. An empty vector restores the identity placement.
  void set_placement(std::vector<HostId> logical_to_physical);
  const std::vector<HostId>& placement() const { return placement_; }

  /// Serializes flag + delivery-protocol state (checkpoint support): the
  /// pending reduce/broadcast flags and the per-pair sequence numbers must
  /// roll back together with application labels or recovery would desync
  /// senders from receivers.
  void save_state(util::SendBuffer& buf) const;
  void restore_state(util::RecvBuffer& buf);

  /// Flags a proxy for the next reduce (mirror side) / broadcast (master
  /// side). The MRBC delayed-synchronization rule is implemented by the
  /// application flagging a vertex only in its prescribed round.
  void flag_reduce(HostId h, VertexId lid) { reduce_flags_[h].set(lid); }
  void flag_broadcast(HostId h, VertexId lid) { broadcast_flags_[h].set(lid); }

  bool any_pending() const;
  void clear_flags();

  /// reduce phase: flagged mirrors -> masters. For a fixed-Value accessor,
  /// masters whose value received a contribution (or that were themselves
  /// reduce-flagged) become broadcast-flagged. Reduce flags are consumed.
  template <typename Accessor>
  SyncStats reduce(Accessor& acc) { return exchange<true>(acc); }

  /// broadcast phase: flagged masters -> their mirrors (all of them, or
  /// those with a local in-edge; see the class comment). Broadcast flags
  /// are consumed.
  template <typename Accessor>
  SyncStats broadcast(Accessor& acc) { return exchange<false>(acc); }

  /// Full sync: reduce then broadcast, as at the start of each BSP round.
  template <typename Accessor>
  SyncStats sync(Accessor& acc) {
    SyncStats stats = reduce(acc);
    stats += broadcast(acc);
    return stats;
  }

  /// Point-to-point scatter through the delivery layer: buffers[src][dst]
  /// is transmitted with the same framing / fault-injection /
  /// reliable-delivery protocol as proxy syncs and consumed at the
  /// receiver by apply(src, dst, RecvBuffer&). Unlike reduce/broadcast it
  /// is not tied to the proxy exchange lists — the streaming subsystem
  /// uses it to route EdgeBatch deltas to owning hosts. Empty buffers and
  /// the src == dst diagonal (host-local data never crosses the wire) are
  /// skipped. Callers account `values` themselves (the substrate cannot
  /// know how many application values a raw buffer holds).
  template <typename ApplyFn>
  SyncStats scatter(std::vector<std::vector<util::SendBuffer>>&& buffers, ApplyFn&& apply) {
    obs::Span span(obs::Category::kComm, "scatter");
    SyncStats stats;
    stats.bytes_per_host.assign(H_, 0);
    stats.msgs_per_host.assign(H_, 0);
    const HostId rows = static_cast<HostId>(std::min<std::size_t>(buffers.size(), H_));
    for (HostId src = 0; src < rows; ++src) {
      const HostId cols = static_cast<HostId>(std::min<std::size_t>(buffers[src].size(), H_));
      for (HostId dst = 0; dst < cols; ++dst) {
        if (src == dst || buffers[src][dst].empty()) continue;
        deliver(src, dst, buffers[src][dst], stats,
                [&](util::RecvBuffer& rbuf) { apply(src, dst, rbuf); });
      }
    }
    return stats;
  }

 private:
  /// [seq:u64][crc:u32] prepended to every payload in framed mode.
  static constexpr std::size_t kFrameHeaderBytes = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  /// Total transmission attempts per frame in reliable mode.
  static constexpr std::size_t kMaxDeliveryAttempts = 8;
  /// reserve() headroom for the presence encoding's tags/length prefixes.
  static constexpr std::size_t kPresenceSlack = 32;

  std::size_t pair_index(HostId src, HostId dst) const {
    return static_cast<std::size_t>(src) * H_ + dst;
  }

  /// One host-pair message of a sync phase: Phase A2 serializes the `values`
  /// present entries of exchange list `list` from `send` (lids on src), and
  /// Phase B applies them at the matching positions of `recv` (lids on dst).
  struct PairWork {
    HostId src = 0;
    HostId dst = 0;
    std::size_t list = 0;
    const std::vector<VertexId>* send = nullptr;
    const std::vector<VertexId>* recv = nullptr;
    std::size_t values = 0;
  };

  /// One sync phase; see reduce/broadcast and the accessor contract above.
  template <bool kReduce, typename Accessor>
  SyncStats exchange(Accessor& acc) {
    constexpr bool kFixed = requires { typename Accessor::Value; };
    constexpr bool kInEdgeScoped =
        !kReduce && requires { requires Accessor::kReadsBroadcastsThroughInEdges; };
    obs::Span span(obs::Category::kComm, kReduce ? "reduce" : "broadcast");
    std::vector<util::DynamicBitset>& flags = kReduce ? reduce_flags_ : broadcast_flags_;
    if (std::none_of(flags.begin(), flags.end(), [](const auto& f) { return f.any(); })) {
      return {};
    }
    // Phase A1: each host consumes its flags and marks the slots it sends
    // on. Reduce: a mirror marks its slot; a master sends nothing and, for
    // a fixed-Value accessor, is promoted to a broadcast flag. Broadcast: a
    // master marks its slots (only those whose mirror has a local in-edge
    // when in-edge scoped), a mirror sends nothing. Each list has one
    // sender, so hosts run in parallel.
    util::ThreadPool::global().parallel_for(0, H_, 1, [&](std::size_t h) {
      const HostId src = static_cast<HostId>(h);
      const std::vector<bool>& is_master = part_->host(src).is_master;
      flags[src].for_each_set_bit([&](std::size_t lid) {
        if (is_master[lid] == kReduce) {
          if constexpr (kReduce && kFixed) broadcast_flags_[src].set(lid);
          return;
        }
        for (const partition::Slot& slot : part_->slots(src, static_cast<VertexId>(lid))) {
          if constexpr (kInEdgeScoped) {
            if (!slot.mirror_has_in_edges) continue;
          }
          const std::size_t list = kReduce ? pair_index(src, slot.peer)
                                           : pair_index(slot.peer, src);
          presence_[list].set(slot.index);
          ++presence_count_[list];
        }
      });
      flags[src].reset_all();
    });
    // The lists with a present entry, src-major: reduce sends mirror host ->
    // master host, broadcast master host -> mirror host.
    std::vector<PairWork> work;
    for (HostId src = 0; src < H_; ++src) {
      for (HostId dst = 0; dst < H_; ++dst) {
        const HostId mh = kReduce ? src : dst;
        const HostId oh = kReduce ? dst : src;
        const std::size_t list = pair_index(mh, oh);
        if (src == dst || presence_count_[list] == 0) continue;
        const auto* mirrors = &part_->mirror_lids(mh, oh);
        const auto* masters = &part_->master_lids(mh, oh);
        work.push_back({src, dst, list, kReduce ? mirrors : masters, kReduce ? masters : mirrors,
                        presence_count_[list]});
      }
    }
    if (work.empty()) return {};
    // Phase A2: serialize those lists in parallel into the per-pair buffer
    // pool, a presence set over the send list and then the body, and clear
    // their presence state.
    util::ThreadPool::global().parallel_for(0, work.size(), 1, [&](std::size_t w) {
      const PairWork& pw = work[w];
      const std::vector<VertexId>& send = *pw.send;
      util::DynamicBitset& present = presence_[pw.list];
      util::SendBuffer& buf = pair_buf(pw.src, pw.dst);
      buf.clear();
      std::size_t entry_bytes = sizeof(std::uint32_t);
      if constexpr (kFixed) entry_bytes += sizeof(typename Accessor::Value);
      buf.reserve(kPresenceSlack + present.byte_size() + pw.values * entry_bytes);
      CodecWriter cw(buf, delivery_.codec);
      detail::write_presence(cw, present, pw.values);
      if constexpr (kFixed) {
        // Plane codecs (frame-of-reference) need the whole plane before the
        // first wire byte. In kRaw the plane serializes to exactly the
        // historical count-prefixed value run.
        std::vector<typename Accessor::Value> vals;
        vals.reserve(pw.values);
        present.for_each_set_bit([&](std::size_t i) {
          vals.push_back(acc.get(pw.src, send[i]));
          if constexpr (kReduce) acc.reset(pw.src, send[i]);
        });
        ValueCodec<typename Accessor::Value>::write_plane(cw, vals);
      } else {
        present.for_each_set_bit([&](std::size_t i) {
          if constexpr (kReduce) {
            acc.serialize_reduce(pw.src, send[i], cw);
          } else {
            acc.serialize_broadcast(pw.src, send[i], cw);
          }
        });
      }
      present.reset_all();
      presence_count_[pw.list] = 0;
    });
    // Phase B: deliver sequentially in the same pair order.
    SyncStats stats;
    stats.bytes_per_host.assign(H_, 0);
    stats.msgs_per_host.assign(H_, 0);
    for (const PairWork& pw : work) {
      stats.values += pw.values;
      const std::vector<VertexId>& recv = *pw.recv;
      deliver(pw.src, pw.dst, pair_buf(pw.src, pw.dst), stats, [&](util::RecvBuffer& rbuf) {
        CodecReader r(rbuf, delivery_.codec);
        if constexpr (kFixed) {
          detail::read_value_message<typename Accessor::Value>(
              r, recv.size(), [&](std::size_t i, const typename Accessor::Value& v) {
                if constexpr (kReduce) {
                  acc.reduce(pw.dst, recv[i], v);
                  broadcast_flags_[pw.dst].set(recv[i]);
                } else {
                  acc.set(pw.dst, recv[i], v);
                }
              });
        } else {
          detail::read_presence(r, recv.size(), [&](std::size_t i) {
            if constexpr (kReduce) {
              acc.apply_reduce(pw.dst, recv[i], r);
            } else {
              acc.apply_broadcast(pw.dst, recv[i], r);
            }
          });
        }
      });
    }
    return stats;
  }

  /// Reusable per-pair serialization buffer (cleared each phase, capacity
  /// kept across rounds).
  util::SendBuffer& pair_buf(HostId src, HostId dst) { return pair_bufs_[pair_index(src, dst)]; }

  /// Transmits one host-pair message and applies it at the receiver.
  /// Unframed mode applies directly (historical behavior, identical byte
  /// accounting). Framed mode runs the fault/retransmit protocol described
  /// in the file header. `apply` is invoked at most once per logical
  /// message (duplicate copies are suppressed by sequence number). The
  /// message buffer is borrowed, not consumed — callers keep it pooled —
  /// and the receiver reads it through a zero-copy view.
  template <typename ApplyFn>
  void deliver(HostId src, HostId dst, const util::SendBuffer& msg, SyncStats& stats,
               ApplyFn&& apply) {
    if (!placement_.empty() && placement_[src] == placement_[dst]) {
      // Degraded-mode co-location: both logical endpoints execute on the
      // same physical host, so the "message" is a local memory move.
      stats.local_messages += 1;
      stats.local_bytes += msg.size();
      util::RecvBuffer rbuf(msg);
      apply(rbuf);
      return;
    }
    stats.messages += 1;
    stats.msgs_per_host[src] += 1;
    if (obs::metrics_enabled()) {
      obs::Metrics::global().histogram(obs::Hist::kMessageBytes).record(msg.size());
      if (msg.size() > 0) {
        // Compression ratio as a percentage (100 = incompressible, 250 =
        // 2.5x smaller on the wire); raw_bytes is the fixed-width size the
        // same fields would have occupied.
        obs::Metrics::global()
            .histogram(obs::Hist::kCompressionPct)
            .record(msg.raw_bytes() * 100 / msg.size());
      }
    }
    if (!framed_) {
      stats.bytes += msg.size();
      stats.raw_bytes += msg.raw_bytes();
      stats.bytes_per_host[src] += msg.size();
      if (obs::metrics_enabled()) {
        obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(1);
      }
      util::RecvBuffer rbuf(msg);
      apply(rbuf);
      return;
    }
    const std::vector<std::uint8_t>& payload = msg.bytes();
    const std::uint32_t crc = util::crc32(payload);
    const std::size_t pair = pair_index(src, dst);
    const std::uint64_t seq = ++next_seq_[pair];
    const std::size_t frame_bytes = kFrameHeaderBytes + payload.size();
    ChannelFaults* faults = delivery_.faults;
    for (std::size_t attempt = 1;; ++attempt) {
      if (attempt == 1) {
        stats.bytes += frame_bytes;
        stats.raw_bytes += kFrameHeaderBytes + msg.raw_bytes();
        stats.bytes_per_host[src] += frame_bytes;
      } else {
        stats.retransmits += 1;
        stats.retransmit_bytes += frame_bytes;
        stats.backoff_steps += std::size_t{1} << std::min<std::size_t>(attempt - 2, 16);
      }
      // The final reliable attempt is escalated (verified out-of-band) and
      // bypasses injection: bounded retransmission must terminate with a
      // delivery or the recovery guarantee would be probabilistic.
      const bool forced = delivery_.reliable && attempt >= kMaxDeliveryAttempts;
      if (faults && !forced && faults->drop(src, dst, seq)) {
        stats.drops += 1;
        if (!delivery_.reliable) {
          if (obs::metrics_enabled()) {
            obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(attempt);
          }
          return;  // lost for good
        }
        continue;
      }
      long flip = faults && !forced && !payload.empty()
                      ? faults->corrupt_bit(src, dst, seq, payload.size())
                      : -1;
      if (flip >= 0) {
        wire_scratch_ = payload;  // assign reuses the scratch allocation
        std::vector<std::uint8_t>& wire = wire_scratch_;
        wire[static_cast<std::size_t>(flip) / 8] ^=
            static_cast<std::uint8_t>(1u << (static_cast<std::size_t>(flip) % 8));
        if (util::crc32(wire) != crc) {
          stats.corruptions_detected += 1;
          if (!delivery_.reliable) {
            if (obs::metrics_enabled()) {
              obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(attempt);
            }
            return;  // detected and discarded, not repaired
          }
          continue;
        }
      }
      if (forced) stats.forced_deliveries += 1;
      const bool duplicated = faults && !forced && faults->duplicate(src, dst, seq);
      if (duplicated) {
        stats.duplicates += 1;
        stats.retransmit_bytes += frame_bytes;  // the extra copy is real traffic
      }
      for (std::size_t copy = 0; copy < (duplicated ? 2u : 1u); ++copy) {
        if (seq > last_accepted_[pair]) {
          last_accepted_[pair] = seq;
          util::RecvBuffer rbuf(payload.data(), payload.size());
          apply(rbuf);
        } else {
          stats.duplicates_suppressed += 1;
        }
      }
      if (obs::metrics_enabled()) {
        obs::Metrics::global().histogram(obs::Hist::kRetransmitAttempts).record(attempt);
      }
      return;
    }
  }

  const Partition* part_;
  HostId H_;
  std::vector<util::DynamicBitset> reduce_flags_;
  std::vector<util::DynamicBitset> broadcast_flags_;
  DeliveryOptions delivery_;
  bool framed_ = false;                       ///< reliable || faults != nullptr
  std::vector<HostId> placement_;             ///< logical→physical map; empty = identity
  std::vector<std::uint64_t> next_seq_;       ///< per (src,dst) sender counter
  std::vector<std::uint64_t> last_accepted_;  ///< per (src,dst) receiver high-water mark
  std::vector<util::SendBuffer> pair_bufs_;   ///< per (src,dst) reusable message buffers
  /// Per (mirror host, master host) list: the positions a phase sends and
  /// their count. All-zero between phases; none without a partition.
  std::vector<util::DynamicBitset> presence_;
  std::vector<std::size_t> presence_count_;
  std::vector<std::uint8_t> wire_scratch_;    ///< corruption-path frame copy
};

}  // namespace mrbc::comm
