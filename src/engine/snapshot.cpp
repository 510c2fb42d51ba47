#include "engine/snapshot.h"

#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace mrbc::sim {

namespace {

constexpr char kMagic[8] = {'M', 'R', 'B', 'C', 'S', 'N', 'P', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
constexpr std::size_t kSectionHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t);

// Section id of fault-plan repro files.
constexpr std::uint32_t kSectionFaultPlan = 0x46504C4E;  // "FPLN"

}  // namespace

// ---- SnapshotWriter ---------------------------------------------------------

SnapshotWriter::Section& SnapshotWriter::find(std::uint32_t id) {
  for (Section& sec : sections_) {
    if (sec.id == id) return sec;
  }
  sections_.emplace_back();
  sections_.back().id = id;
  return sections_.back();
}

util::SendBuffer& SnapshotWriter::section(std::uint32_t id) { return find(id).buf; }

void SnapshotWriter::attach(std::uint32_t id, const void* data, std::size_t n) {
  Section& sec = find(id);
  if (sec.tail != nullptr) {
    throw std::logic_error("snapshot: section " + std::to_string(id) +
                           " already has a payload attached");
  }
  sec.tail = static_cast<const std::uint8_t*>(data);
  sec.tail_size = n;
}

void SnapshotWriter::write_file(const std::string& path) const {
  // Measured (unlike the loop's modeled "checkpoint" span): CRC, write and
  // rename of one container file.
  obs::Span span(obs::Category::kCheckpoint, "snapshot-write");
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw SnapshotError("snapshot: cannot open " + tmp + " for writing");
  }
  bool ok = true;
  auto put = [&](const void* data, std::size_t n) {
    if (ok && n > 0) ok = std::fwrite(data, 1, n, f) == n;
  };
  util::SendBuffer header;
  header.write_raw(kMagic, sizeof(kMagic));
  header.write<std::uint32_t>(kFormatVersion);
  header.write<std::uint32_t>(static_cast<std::uint32_t>(sections_.size()));
  put(header.bytes().data(), header.size());
  for (const Section& sec : sections_) {
    const std::vector<std::uint8_t>& head = sec.buf.bytes();
    header.clear();
    header.write<std::uint32_t>(sec.id);
    header.write<std::uint64_t>(head.size() + sec.tail_size);
    header.write<std::uint32_t>(util::crc32(sec.tail, sec.tail_size, util::crc32(head)));
    put(header.bytes().data(), header.size());
    put(head.data(), head.size());
    put(sec.tail, sec.tail_size);
  }
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: cannot rename " + tmp + " to " + path);
  }
}

// ---- SnapshotReader ---------------------------------------------------------

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw SnapshotError("snapshot: truncated header (" + std::to_string(bytes.size()) +
                        " bytes, need " + std::to_string(kHeaderBytes) + ")");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("snapshot: bad magic (not a snapshot file, or corrupted header)");
  }
  util::RecvBuffer buf(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic));
  const auto version = buf.read<std::uint32_t>();
  if (version != kFormatVersion) {
    throw SnapshotError("snapshot: unsupported format version " + std::to_string(version) +
                        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  const auto count = buf.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (buf.remaining() < kSectionHeaderBytes) {
      throw SnapshotError("snapshot: truncated section header (section " + std::to_string(i) +
                          " of " + std::to_string(count) + ")");
    }
    const auto id = buf.read<std::uint32_t>();
    const auto length = buf.read<std::uint64_t>();
    const auto crc = buf.read<std::uint32_t>();
    if (length > buf.remaining()) {
      throw SnapshotError("snapshot: section " + std::to_string(id) + " claims " +
                          std::to_string(length) + " bytes but only " +
                          std::to_string(buf.remaining()) + " remain (truncated or corrupt)");
    }
    std::vector<std::uint8_t> payload(length);
    buf.read_raw(payload.data(), length);
    if (util::crc32(payload) != crc) {
      throw SnapshotError("snapshot: CRC mismatch in section " + std::to_string(id) +
                          " (bit corruption on disk)");
    }
    sections_.emplace_back(id, std::move(payload));
  }
  if (buf.remaining() != 0) {
    throw SnapshotError("snapshot: " + std::to_string(buf.remaining()) +
                        " trailing bytes after the last section");
  }
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapshotError("snapshot: cannot open " + path);
  }
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw SnapshotError("snapshot: read error on " + path);
  }
  return SnapshotReader(std::move(data));
}

bool SnapshotReader::has(std::uint32_t id) const {
  for (const auto& [sid, payload] : sections_) {
    if (sid == id) return true;
  }
  return false;
}

const std::vector<std::uint8_t>& SnapshotReader::section(std::uint32_t id) const {
  for (const auto& [sid, payload] : sections_) {
    if (sid == id) return payload;
  }
  throw SnapshotError("snapshot: missing section " + std::to_string(id));
}

// ---- RunStats serialization -------------------------------------------------

void save_run_stats(util::SendBuffer& buf, const RunStats& stats) {
  buf.write<std::uint64_t>(stats.rounds);
  buf.write<double>(stats.compute_seconds);
  buf.write<double>(stats.network_seconds);
  buf.write<std::uint64_t>(stats.messages);
  buf.write<std::uint64_t>(stats.bytes);
  buf.write<std::uint64_t>(stats.raw_bytes);
  buf.write<std::uint64_t>(stats.values);
  buf.write<double>(stats.imbalance_sum);
  buf.write_vector(stats.per_host_compute_seconds);
  buf.write<std::uint64_t>(stats.round_log.size());
  for (const RoundLogEntry& e : stats.round_log) {
    buf.write<std::uint64_t>(e.round);
    buf.write<double>(e.compute_seconds);
    buf.write<double>(e.network_seconds);
    buf.write<std::uint64_t>(e.messages);
    buf.write<std::uint64_t>(e.bytes);
    buf.write<std::uint64_t>(e.values);
    buf.write<std::uint64_t>(e.work_items);
    buf.write<std::uint64_t>(e.retransmits);
    buf.write<std::uint8_t>(e.crashed ? 1 : 0);
  }
  const FaultCounters& fc = stats.faults;
  buf.write<std::uint64_t>(fc.drops);
  buf.write<std::uint64_t>(fc.duplicates);
  buf.write<std::uint64_t>(fc.duplicates_suppressed);
  buf.write<std::uint64_t>(fc.corruptions_detected);
  buf.write<std::uint64_t>(fc.retransmits);
  buf.write<std::uint64_t>(fc.retransmit_bytes);
  buf.write<std::uint64_t>(fc.forced_deliveries);
  buf.write<std::uint64_t>(fc.checkpoints);
  buf.write<std::uint64_t>(fc.checkpoint_bytes);
  buf.write<std::uint64_t>(fc.crashes);
  buf.write<std::uint64_t>(fc.recovery_rounds);
  buf.write<std::uint64_t>(fc.deaths);
  buf.write<std::uint64_t>(fc.handoffs);
  buf.write<std::uint64_t>(fc.handoff_bytes);
  buf.write<std::uint64_t>(fc.detection_rounds);
  buf.write<std::uint64_t>(fc.suspect_rounds);
  buf.write<double>(fc.retransmit_seconds);
  buf.write<double>(fc.checkpoint_seconds);
  buf.write<double>(fc.detection_seconds);
  buf.write<double>(fc.handoff_seconds);
  const PhaseBreakdown& pb = stats.phases;
  buf.write<double>(pb.comm_seconds);
  buf.write<double>(pb.compute_seconds);
  buf.write<double>(pb.checkpoint_seconds);
  buf.write<double>(pb.recovery_seconds);
}

RunStats load_run_stats(util::RecvBuffer& buf) {
  RunStats stats;
  stats.rounds = buf.read<std::uint64_t>();
  stats.compute_seconds = buf.read<double>();
  stats.network_seconds = buf.read<double>();
  stats.messages = buf.read<std::uint64_t>();
  stats.bytes = buf.read<std::uint64_t>();
  stats.raw_bytes = buf.read<std::uint64_t>();
  stats.values = buf.read<std::uint64_t>();
  stats.imbalance_sum = buf.read<double>();
  stats.per_host_compute_seconds = buf.read_vector<double>();
  const auto log_entries = buf.read<std::uint64_t>();
  stats.round_log.reserve(log_entries);
  for (std::uint64_t i = 0; i < log_entries; ++i) {
    RoundLogEntry e;
    e.round = buf.read<std::uint64_t>();
    e.compute_seconds = buf.read<double>();
    e.network_seconds = buf.read<double>();
    e.messages = buf.read<std::uint64_t>();
    e.bytes = buf.read<std::uint64_t>();
    e.values = buf.read<std::uint64_t>();
    e.work_items = buf.read<std::uint64_t>();
    e.retransmits = buf.read<std::uint64_t>();
    e.crashed = buf.read<std::uint8_t>() != 0;
    stats.round_log.push_back(e);
  }
  FaultCounters& fc = stats.faults;
  fc.drops = buf.read<std::uint64_t>();
  fc.duplicates = buf.read<std::uint64_t>();
  fc.duplicates_suppressed = buf.read<std::uint64_t>();
  fc.corruptions_detected = buf.read<std::uint64_t>();
  fc.retransmits = buf.read<std::uint64_t>();
  fc.retransmit_bytes = buf.read<std::uint64_t>();
  fc.forced_deliveries = buf.read<std::uint64_t>();
  fc.checkpoints = buf.read<std::uint64_t>();
  fc.checkpoint_bytes = buf.read<std::uint64_t>();
  fc.crashes = buf.read<std::uint64_t>();
  fc.recovery_rounds = buf.read<std::uint64_t>();
  fc.deaths = buf.read<std::uint64_t>();
  fc.handoffs = buf.read<std::uint64_t>();
  fc.handoff_bytes = buf.read<std::uint64_t>();
  fc.detection_rounds = buf.read<std::uint64_t>();
  fc.suspect_rounds = buf.read<std::uint64_t>();
  fc.retransmit_seconds = buf.read<double>();
  fc.checkpoint_seconds = buf.read<double>();
  fc.detection_seconds = buf.read<double>();
  fc.handoff_seconds = buf.read<double>();
  PhaseBreakdown& pb = stats.phases;
  pb.comm_seconds = buf.read<double>();
  pb.compute_seconds = buf.read<double>();
  pb.checkpoint_seconds = buf.read<double>();
  pb.recovery_seconds = buf.read<double>();
  return stats;
}

// ---- FaultPlan repro files --------------------------------------------------

void save_fault_plan_file(const std::string& path, const FaultPlan& plan,
                          std::uint64_t fuzz_seed) {
  SnapshotWriter writer;
  util::SendBuffer& buf = writer.section(kSectionFaultPlan);
  buf.write<std::uint64_t>(fuzz_seed);
  plan.save(buf);
  writer.write_file(path);
}

FaultPlan load_fault_plan_file(const std::string& path, std::uint64_t* fuzz_seed) {
  const SnapshotReader reader = SnapshotReader::from_file(path);
  const std::vector<std::uint8_t>& payload = reader.section(kSectionFaultPlan);
  util::RecvBuffer buf(payload.data(), payload.size());
  FaultPlan plan;
  try {
    const auto seed = buf.read<std::uint64_t>();
    if (fuzz_seed) *fuzz_seed = seed;
    plan.restore(buf);
  } catch (const std::out_of_range& e) {
    throw SnapshotError(std::string("fault-plan repro: ") + e.what());
  }
  return plan;
}

}  // namespace mrbc::sim
