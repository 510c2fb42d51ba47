#pragma once
// Durable on-disk snapshots: a versioned, crc32-framed container format
// used for restart-from-disk checkpoints (bc_tool --checkpoint-dir /
// --resume) and for fault-schedule repro files dumped by the differential
// fuzzer.
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
// (which would otherwise interpret garbage state). Writes go through a
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
/// unsupported version, truncation, CRC mismatch, or a missing/mismatched
/// section. Restore paths convert lower-level deserialization errors into
/// this type so callers have one failure mode to handle.
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

 private:
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> sections_;
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
