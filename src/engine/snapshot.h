#pragma once
// Durable on-disk snapshots: a versioned, crc32-framed container format
// used for restart-from-disk checkpoints (bc_tool --checkpoint-dir /
// --resume, driven for MRBC and SBBC by DurableFile below), for the
// streaming engine's serve.ckpt, and for fault-schedule repro files dumped
// by the differential fuzzer.
//
// File layout (all integers little-endian, written via util::SendBuffer):
//
//   [magic: 8 bytes "MRBCSNP1"] [version: u32] [section count: u32]
//   then per section:
//   [id: u32] [payload length: u64] [crc32(payload): u32] [payload bytes]
//
// Every structural property is validated up front by SnapshotReader —
// magic, version, per-section bounds, and per-section CRC — and any
// violation throws SnapshotError with a message naming what failed, so a
// truncated or bit-flipped file can never reach application restore code
// (which would otherwise interpret garbage state). A CRC only proves the
// bytes are the ones written, not that they fit this run, so restore code
// parses each section through SnapshotReader::read and checks restored
// sizes against the run (expect_size, load_tables). Writes go through a
// temporary file + rename so a process killed mid-write leaves the previous
// snapshot intact (atomic replacement on POSIX). The file is not fsynced:
// a completed write survives the process dying (SIGKILL, OOM), not the
// machine losing power.
//
// Single-pass writes: SnapshotWriter never assembles the file image. Each
// section's bytes are checksummed once and streamed once from where they
// already live — the section's own buffer, plus an optional borrowed
// payload (attach) such as the BSP loop's snapshot, which is framed
// without being copied.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/cluster.h"
#include "engine/fault.h"
#include "util/serialize.h"

namespace mrbc::sim {

/// Any structural problem with a snapshot: I/O failure, bad magic,
/// unsupported version, truncation, CRC mismatch, a missing/mismatched
/// section, or restored state that does not fit the run. Restore paths
/// convert lower-level deserialization errors into this type (see
/// SnapshotReader::read) so callers have one failure mode to handle.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Collects a snapshot's sections, then streams them to disk atomically.
class SnapshotWriter {
 public:
  /// Serialization buffer for section `id` (created on first use; repeated
  /// calls append to the same section).
  util::SendBuffer& section(std::uint32_t id);

  /// Ends section `id`'s payload with `n` borrowed bytes at `data`, framed
  /// after everything written through section(id) and never copied:
  /// `data` must stay valid and unchanged until write_file returns. One
  /// attachment per section; a second throws std::logic_error.
  void attach(std::uint32_t id, const void* data, std::size_t n);

  /// Atomically replaces `path` with this snapshot (tmp file + rename).
  /// Throws SnapshotError on any I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Section {
    std::uint32_t id = 0;
    util::SendBuffer buf;
    const std::uint8_t* tail = nullptr;  ///< attach()ed payload, after buf
    std::size_t tail_size = 0;
  };
  Section& find(std::uint32_t id);

  std::vector<Section> sections_;
};

/// Parses `payload`, the bytes of section `id`, with
/// `parse(util::RecvBuffer&)`, which must consume all of them. Any failure
/// inside — truncation, an oversized length prefix, a failed allocation, a
/// size check — and any unread trailing byte is rethrown as SnapshotError
/// naming the section.
template <typename Parse>
void parse_section(std::uint32_t id, const char* name, const std::vector<std::uint8_t>& payload,
                   Parse&& parse) {
  util::RecvBuffer buf(payload.data(), payload.size());
  try {
    parse(buf);
    if (buf.remaining() != 0) {
      throw std::out_of_range(std::to_string(buf.remaining()) + " unread trailing bytes");
    }
  } catch (const std::exception& e) {
    throw SnapshotError("snapshot: section " + std::to_string(id) + " (" + name + "): " +
                        e.what());
  }
}

/// Parses and fully validates a snapshot container. Construction throws
/// SnapshotError on any structural problem; a constructed reader's
/// sections are known-intact (CRC-verified) payloads.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::vector<std::uint8_t> bytes);

  /// Reads and validates `path`. Throws SnapshotError if the file cannot
  /// be read or fails validation.
  static SnapshotReader from_file(const std::string& path);

  bool has(std::uint32_t id) const;

  /// Payload of section `id`; throws SnapshotError if the section is
  /// absent. Read it through a util::RecvBuffer view.
  const std::vector<std::uint8_t>& section(std::uint32_t id) const;

  /// parse_section over section `id`'s payload.
  template <typename Parse>
  void read(std::uint32_t id, const char* name, Parse&& parse) const {
    parse_section(id, name, section(id), std::forward<Parse>(parse));
  }

 private:
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections_;
};

/// Throws SnapshotError unless restored state `what` holds `expected`
/// entries — a CRC-valid snapshot of another graph or source set would
/// otherwise index out of bounds.
void expect_size(const char* what, std::uint64_t size, std::uint64_t expected);

/// Per-source tables (dist/sigma/delta) in snapshots: a u64 row count, then
/// each row write_vector-framed.
template <typename T>
void save_tables(util::SendBuffer& buf, const std::vector<std::vector<T>>& tables) {
  buf.write<std::uint64_t>(tables.size());
  for (const auto& row : tables) buf.write_vector(row);
}

/// Mirror of save_tables for a table of `rows` rows of `cols` entries. The
/// row count is checked before anything is allocated, so a corrupt count
/// cannot reach reserve().
template <typename T>
void load_tables(util::RecvBuffer& buf, std::vector<std::vector<T>>& tables, std::size_t rows,
                 std::size_t cols) {
  const auto n = buf.read<std::uint64_t>();
  expect_size("table rows", n, rows);
  tables.clear();
  tables.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    tables.push_back(buf.read_vector<T>());
    expect_size("table row", tables.back().size(), cols);
  }
}

/// Section ids shared by every DurableFile. Engines number their own
/// sections in between (MRBC: 3 = in-flight phase stats, 4 = BSP loop).
constexpr std::uint32_t kSectionMeta = 1;   ///< fingerprint, then the engine's cursor
constexpr std::uint32_t kSectionAccum = 2;  ///< results of completed work
constexpr std::uint32_t kSectionFaultCursor = 5;
constexpr std::uint32_t kSectionMembership = 6;

/// Thrown by DurableFile::write after the write that ends a run early
/// (halt_after_checkpoints reached, or halt_flag raised). Engines catch it
/// around their batch loop and return a run with halted = true; thrown from
/// BspLoop's on_checkpoint hook, it unwinds the loop first.
struct DurableHalt {};

/// The restart-from-disk file of one engine run: <dir>/mrbc.ckpt for MRBC,
/// <dir>/sbbc.ckpt for SBBC. It owns what both engines share — the path,
/// the configuration fingerprint that leads the meta section, the
/// fault-cursor and membership sections, the write count and the halt
/// hooks — while each engine writes and parses its own cursor fields and
/// sections through it.
class DurableFile {
 public:
  /// Checkpointing is off (enabled() false) when `dir` is empty. The fault
  /// injector and membership map of `cluster` travel with every snapshot.
  DurableFile(const std::string& dir, const char* name, std::uint32_t fingerprint,
              const ClusterOptions& cluster, std::size_t halt_after_writes,
              const std::atomic<bool>* halt_flag);

  bool enabled() const { return !path_.empty(); }

  /// Loads the file to resume from and restores the fault cursor and the
  /// membership map from it. Throws SnapshotError when checkpointing is off
  /// or the file is missing, corrupt, or written under another fingerprint.
  /// `parse_meta(buf)` reads the engine's meta fields after the fingerprint;
  /// the engine parses its other sections from the returned reader.
  template <typename ParseMeta>
  SnapshotReader resume(ParseMeta&& parse_meta) const {
    SnapshotReader reader = open();
    reader.read(kSectionMeta, "meta", [&](util::RecvBuffer& buf) {
      if (buf.read<std::uint32_t>() != fingerprint_) {
        throw SnapshotError("written by a different configuration (fingerprint mismatch)");
      }
      parse_meta(buf);
    });
    restore_cluster(reader);
    return reader;
  }

  /// Atomically replaces the file: the meta section starts with the
  /// fingerprint, `fill(writer)` appends the engine's meta fields and
  /// sections, and the fault-cursor and membership sections follow. Throws
  /// DurableHalt after the write when the run must stop.
  template <typename Fill>
  void write(Fill&& fill) {
    SnapshotWriter w;
    w.section(kSectionMeta).write<std::uint32_t>(fingerprint_);
    fill(w);
    commit(w);
  }

 private:
  SnapshotReader open() const;
  void restore_cluster(const SnapshotReader& reader) const;
  void commit(SnapshotWriter& w);

  std::string path_;
  std::uint32_t fingerprint_;
  FaultInjector* fault_;
  Membership* membership_;
  std::size_t halt_after_writes_;
  const std::atomic<bool>* halt_flag_;
  std::size_t writes_ = 0;
};

/// RunStats round-trip for durable checkpoints: every deterministic counter
/// is preserved exactly (measured wall-clock fields are preserved as
/// written — they are not expected to be bit-stable across runs).
void save_run_stats(util::SendBuffer& buf, const RunStats& stats);
RunStats load_run_stats(util::RecvBuffer& buf);

/// FaultPlan repro files (single-section snapshots): the differential
/// fuzzer dumps a failing seed + schedule with save_fault_plan_file and
/// --replay loads it back.
void save_fault_plan_file(const std::string& path, const FaultPlan& plan,
                          std::uint64_t fuzz_seed);
/// Loads a repro file; writes the recorded fuzz seed to `fuzz_seed`.
FaultPlan load_fault_plan_file(const std::string& path, std::uint64_t* fuzz_seed);

}  // namespace mrbc::sim
