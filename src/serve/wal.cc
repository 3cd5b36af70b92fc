#include "serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/pipeline_metrics.h"

namespace remedy {
namespace {

// Little-endian scalar writes/reads, independent of host byte order (same
// helpers as the .rcs shard files keep privately).
void PutU32(std::vector<uint8_t>& out, size_t at, uint32_t value) {
  for (int i = 0; i < 4; ++i) out[at + i] = (value >> (8 * i)) & 0xff;
}

void PutU64(std::vector<uint8_t>& out, size_t at, uint64_t value) {
  for (int i = 0; i < 8; ++i) out[at + i] = (value >> (8 * i)) & 0xff;
}

uint32_t GetU32(const uint8_t* data) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= uint32_t{data[i]} << (8 * i);
  return value;
}

uint64_t GetU64(const uint8_t* data) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= uint64_t{data[i]} << (8 * i);
  return value;
}

// Log header field offsets.
constexpr size_t kLogOffMagic = 0;
constexpr size_t kLogOffVersion = 4;
constexpr size_t kLogOffSchemaDigest = 8;
// Bytes 16..24 are reserved (zero).
constexpr size_t kLogOffChecksum = 24;

// Frame field offsets.
constexpr size_t kFrameOffMagic = 0;
constexpr size_t kFrameOffNumDeltas = 4;
constexpr size_t kFrameOffSequence = 8;
constexpr size_t kFrameOffPayloadChecksum = 16;
constexpr size_t kFrameOffChecksum = 24;

// Checkpoint header field offsets.
constexpr size_t kCkptOffMagic = 0;
constexpr size_t kCkptOffVersion = 4;
constexpr size_t kCkptOffNumEntries = 8;
constexpr size_t kCkptOffEpoch = 16;
constexpr size_t kCkptOffWalSequence = 24;
constexpr size_t kCkptOffSchemaDigest = 32;
constexpr size_t kCkptOffPayloadBytes = 40;
constexpr size_t kCkptOffPayloadChecksum = 48;
constexpr size_t kCkptOffChecksum = 56;

// Caps a frame's declared delta count so a corrupt count can never drive a
// multi-gigabyte allocation before its checksum is even checked.
constexpr uint32_t kMaxDeltasPerRecord = uint32_t{1} << 24;

std::vector<uint8_t> EncodeLogHeader(uint64_t schema_digest) {
  std::vector<uint8_t> out(static_cast<size_t>(kWalHeaderBytes), 0);
  PutU32(out, kLogOffMagic, kWalFileMagic);
  PutU32(out, kLogOffVersion, kWalFileVersion);
  PutU64(out, kLogOffSchemaDigest, schema_digest);
  PutU64(out, kLogOffChecksum, Fnv1a64(out.data(), out.size()));
  return out;
}

// Validates the 32 header bytes of an existing log against `schema_digest`.
Status CheckLogHeader(const uint8_t* data, uint64_t schema_digest,
                      const std::string& path) {
  if (GetU32(data + kLogOffMagic) != kWalFileMagic) {
    return DataCorruptionError("bad WAL magic in '" + path + "'");
  }
  if (GetU32(data + kLogOffVersion) != kWalFileVersion) {
    return DataCorruptionError(
        "unsupported WAL version " +
        std::to_string(GetU32(data + kLogOffVersion)) + " in '" + path + "'");
  }
  std::vector<uint8_t> check(data, data + kWalHeaderBytes);
  const uint64_t expected = GetU64(data + kLogOffChecksum);
  PutU64(check, kLogOffChecksum, 0);
  if (Fnv1a64(check.data(), check.size()) != expected) {
    return DataCorruptionError("WAL header checksum mismatch in '" + path +
                               "'");
  }
  if (GetU64(data + kLogOffSchemaDigest) != schema_digest) {
    return InvalidArgumentError("WAL '" + path +
                                "' belongs to a different schema");
  }
  return OkStatus();
}

std::vector<uint8_t> EncodeRecord(
    uint64_t sequence, const std::vector<Hierarchy::LeafDelta>& deltas) {
  const size_t payload_bytes = deltas.size() * kWalDeltaBytes;
  std::vector<uint8_t> out(static_cast<size_t>(kWalFrameBytes) + payload_bytes,
                           0);
  size_t at = kWalFrameBytes;
  for (const Hierarchy::LeafDelta& delta : deltas) {
    PutU64(out, at, delta.leaf_key);
    PutU64(out, at + 8, static_cast<uint64_t>(delta.delta_positives));
    PutU64(out, at + 16, static_cast<uint64_t>(delta.delta_negatives));
    at += kWalDeltaBytes;
  }
  PutU32(out, kFrameOffMagic, kWalRecordMagic);
  PutU32(out, kFrameOffNumDeltas, static_cast<uint32_t>(deltas.size()));
  PutU64(out, kFrameOffSequence, sequence);
  PutU64(out, kFrameOffPayloadChecksum,
         Fnv1a64(out.data() + kWalFrameBytes, payload_bytes));
  PutU64(out, kFrameOffChecksum, Fnv1a64(out.data(), kWalFrameBytes));
  return out;
}

Status FsyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return IoError("fsync of " + what + " failed: " + std::strerror(errno));
  }
  return OkStatus();
}

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return IoError("cannot open '" + path + "' to fsync: " +
                   std::strerror(errno));
  }
  Status synced = FsyncFd(fd, "'" + path + "'");
  ::close(fd);
  return synced;
}

// Truncates `path` to `size` bytes and syncs the truncation.
Status TruncateFile(const std::string& path, int64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return IoError("cannot truncate '" + path + "': " + std::strerror(errno));
  }
  return FsyncPath(path);
}

}  // namespace

DeltaWal::~DeltaWal() {
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<DeltaWal>> DeltaWal::Open(const std::string& path,
                                                   uint64_t schema_digest,
                                                   uint64_t next_sequence) {
  REMEDY_CHECK(next_sequence >= 1) << "WAL sequences are 1-based";
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  bool fresh = false;
  if (file == nullptr) {
    if (errno != ENOENT) {
      return IoError("cannot open WAL '" + path + "': " +
                     std::strerror(errno));
    }
    file = std::fopen(path.c_str(), "w+b");
    if (file == nullptr) {
      return IoError("cannot create WAL '" + path + "': " +
                     std::strerror(errno));
    }
    fresh = true;
  }
  if (!fresh) {
    uint8_t header[kWalHeaderBytes];
    const size_t read = std::fread(header, 1, sizeof(header), file);
    if (read < sizeof(header)) {
      // A crash during creation left fewer bytes than one header; nothing
      // in the file can have been acknowledged (the creation fsync happens
      // before the first append), so rewrite it as fresh.
      if (std::fseek(file, 0, SEEK_SET) != 0 ||
          ::ftruncate(::fileno(file), 0) != 0) {
        std::fclose(file);
        return IoError("cannot reset torn WAL '" + path + "'");
      }
      fresh = true;
    } else {
      Status valid = CheckLogHeader(header, schema_digest, path);
      if (!valid.ok()) {
        std::fclose(file);
        return valid;
      }
    }
  }
  if (fresh) {
    const std::vector<uint8_t> header = EncodeLogHeader(schema_digest);
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
        std::fflush(file) != 0) {
      std::fclose(file);
      return IoError("cannot write WAL header to '" + path + "'");
    }
    Status synced = FsyncFd(::fileno(file), "WAL '" + path + "'");
    if (!synced.ok()) {
      std::fclose(file);
      return synced;
    }
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return IoError("cannot seek to the end of WAL '" + path + "'");
  }
  return std::unique_ptr<DeltaWal>(
      new DeltaWal(file, path, schema_digest, next_sequence));
}

StatusOr<uint64_t> DeltaWal::Append(
    const std::vector<Hierarchy::LeafDelta>& deltas) {
  REMEDY_CHECK(file_ != nullptr);
  REMEDY_FAULT_POINT("wal/append");
  const std::vector<uint8_t> record = EncodeRecord(next_sequence_, deltas);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    // The log may now hold a torn record; recovery truncates it away.
    return IoError("short write appending to WAL '" + path_ + "'");
  }
  dirty_ = true;
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.wal_records_appended->Increment();
  metrics.wal_bytes_appended->Increment(static_cast<int64_t>(record.size()));
  return next_sequence_++;
}

Status DeltaWal::Sync() {
  REMEDY_CHECK(file_ != nullptr);
  if (!dirty_) return OkStatus();
  REMEDY_FAULT_POINT("wal/fsync");
  if (std::fflush(file_) != 0) {
    return IoError("cannot flush WAL '" + path_ + "': " +
                   std::strerror(errno));
  }
  RETURN_IF_ERROR(FsyncFd(::fileno(file_), "WAL '" + path_ + "'"));
  dirty_ = false;
  PipelineMetrics::Get().wal_syncs->Increment();
  return OkStatus();
}

Status DeltaWal::Reset() {
  REMEDY_CHECK(file_ != nullptr);
  if (std::fflush(file_) != 0 ||
      ::ftruncate(::fileno(file_), kWalHeaderBytes) != 0 ||
      std::fseek(file_, 0, SEEK_END) != 0) {
    return IoError("cannot reset WAL '" + path_ + "': " +
                   std::strerror(errno));
  }
  dirty_ = false;
  REMEDY_FAULT_POINT("wal/fsync");
  return FsyncFd(::fileno(file_), "WAL '" + path_ + "'");
}

StatusOr<WalReplayResult> DeltaWal::Replay(
    const std::string& path, uint64_t schema_digest, uint64_t min_sequence,
    const std::function<Status(const WalRecord&)>& apply) {
  WalReplayResult result;
  result.last_sequence = min_sequence;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return result;  // no log yet: nothing to replay
    return IoError("cannot open WAL '" + path + "': " + std::strerror(errno));
  }
  uint8_t header[kWalHeaderBytes];
  const size_t header_read = std::fread(header, 1, sizeof(header), file);
  if (header_read < sizeof(header)) {
    // Torn creation: no record can have been acknowledged. Drop the file's
    // bytes; Open rewrites a fresh header.
    std::fclose(file);
    RETURN_IF_ERROR(TruncateFile(path, 0));
    result.tail_repaired = true;
    PipelineMetrics::Get().wal_torn_tails_repaired->Increment();
    return result;
  }
  {
    Status valid = CheckLogHeader(header, schema_digest, path);
    if (!valid.ok()) {
      std::fclose(file);
      return valid;
    }
  }

  int64_t valid_end = kWalHeaderBytes;  // file offset after the last good
                                        // record
  uint64_t prev_sequence = 0;
  bool torn = false;
  std::vector<uint8_t> payload;
  while (true) {
    uint8_t frame[kWalFrameBytes];
    const size_t frame_read = std::fread(frame, 1, sizeof(frame), file);
    if (frame_read == 0) break;  // clean end of log
    if (frame_read < sizeof(frame) ||
        GetU32(frame + kFrameOffMagic) != kWalRecordMagic) {
      torn = true;
      break;
    }
    {
      std::vector<uint8_t> check(frame, frame + kWalFrameBytes);
      const uint64_t expected = GetU64(frame + kFrameOffChecksum);
      PutU64(check, kFrameOffChecksum, 0);
      if (Fnv1a64(check.data(), check.size()) != expected) {
        torn = true;
        break;
      }
    }
    const uint32_t num_deltas = GetU32(frame + kFrameOffNumDeltas);
    if (num_deltas > kMaxDeltasPerRecord) {
      torn = true;
      break;
    }
    payload.resize(static_cast<size_t>(num_deltas) * kWalDeltaBytes);
    if (std::fread(payload.data(), 1, payload.size(), file) !=
            payload.size() ||
        Fnv1a64(payload.data(), payload.size()) !=
            GetU64(frame + kFrameOffPayloadChecksum)) {
      torn = true;
      break;
    }
    const uint64_t sequence = GetU64(frame + kFrameOffSequence);
    if (sequence <= prev_sequence) {
      // A torn tail cannot yield a checksum-valid record out of order; the
      // log itself is wrong.
      std::fclose(file);
      return DataCorruptionError(
          "WAL '" + path + "' sequence " + std::to_string(sequence) +
          " does not advance past " + std::to_string(prev_sequence));
    }
    prev_sequence = sequence;
    valid_end += static_cast<int64_t>(kWalFrameBytes + payload.size());
    if (sequence <= min_sequence) continue;  // the checkpoint covers it

    // The record is committed and uncovered: decode and apply.
    Status replayed = [&]() -> Status {
      REMEDY_FAULT_POINT("wal/replay");
      WalRecord record;
      record.sequence = sequence;
      record.deltas.resize(num_deltas);
      for (uint32_t i = 0; i < num_deltas; ++i) {
        const uint8_t* at = payload.data() + size_t{i} * kWalDeltaBytes;
        record.deltas[i].leaf_key = GetU64(at);
        record.deltas[i].delta_positives =
            static_cast<int64_t>(GetU64(at + 8));
        record.deltas[i].delta_negatives =
            static_cast<int64_t>(GetU64(at + 16));
      }
      return apply(record);
    }();
    if (!replayed.ok()) {
      std::fclose(file);
      return replayed.WithContext("replaying WAL '" + path + "' record " +
                                  std::to_string(sequence));
    }
    result.last_sequence = sequence;
    ++result.records_applied;
    PipelineMetrics::Get().wal_records_replayed->Increment();
  }
  std::fclose(file);
  if (torn) {
    RETURN_IF_ERROR(TruncateFile(path, valid_end));
    result.tail_repaired = true;
    PipelineMetrics::Get().wal_torn_tails_repaired->Increment();
  }
  return result;
}

Status WriteWalCheckpoint(const std::string& path,
                          const WalCheckpoint& checkpoint) {
  const size_t num_entries = checkpoint.leaf_counts.size();
  const size_t payload_bytes = num_entries * 24 + 16;
  std::vector<uint8_t> out(static_cast<size_t>(kCheckpointHeaderBytes) +
                               payload_bytes,
                           0);
  size_t at = kCheckpointHeaderBytes;
  for (const auto& [key, counts] : checkpoint.leaf_counts) {
    PutU64(out, at, key);
    PutU64(out, at + 8, static_cast<uint64_t>(counts.positives));
    PutU64(out, at + 16, static_cast<uint64_t>(counts.negatives));
    at += 24;
  }
  PutU64(out, at, static_cast<uint64_t>(checkpoint.totals.positives));
  PutU64(out, at + 8, static_cast<uint64_t>(checkpoint.totals.negatives));
  PutU32(out, kCkptOffMagic, kCheckpointMagic);
  PutU32(out, kCkptOffVersion, kCheckpointVersion);
  PutU64(out, kCkptOffNumEntries, num_entries);
  PutU64(out, kCkptOffEpoch, checkpoint.epoch);
  PutU64(out, kCkptOffWalSequence, checkpoint.wal_sequence);
  PutU64(out, kCkptOffSchemaDigest, checkpoint.schema_digest);
  PutU64(out, kCkptOffPayloadBytes, payload_bytes);
  PutU64(out, kCkptOffPayloadChecksum,
         Fnv1a64(out.data() + kCheckpointHeaderBytes, payload_bytes));
  PutU64(out, kCkptOffChecksum, Fnv1a64(out.data(), kCheckpointHeaderBytes));

  const std::string tmp = path + ".tmp";
  Status written = [&]() -> Status {
    REMEDY_FAULT_POINT("wal/append");
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
      return IoError("cannot create checkpoint '" + tmp + "': " +
                     std::strerror(errno));
    }
    if (std::fwrite(out.data(), 1, out.size(), file) != out.size() ||
        std::fflush(file) != 0) {
      std::fclose(file);
      return IoError("short write to checkpoint '" + tmp + "'");
    }
    Status synced = [&]() -> Status {
      REMEDY_FAULT_POINT("wal/fsync");
      return FsyncFd(::fileno(file), "checkpoint '" + tmp + "'");
    }();
    std::fclose(file);
    RETURN_IF_ERROR(synced);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return IoError("cannot rename checkpoint '" + tmp + "' over '" + path +
                     "': " + std::strerror(errno));
    }
    // Make the rename durable: sync the containing directory.
    const size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash);
    REMEDY_FAULT_POINT("wal/fsync");
    return FsyncPath(dir);
  }();
  if (!written.ok()) {
    std::remove(tmp.c_str());  // never leave a torn tmp behind
    return written;
  }
  PipelineMetrics::Get().wal_checkpoints->Increment();
  return OkStatus();
}

StatusOr<WalCheckpoint> ReadWalCheckpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoError("cannot open checkpoint '" + path + "': " +
                   std::strerror(errno));
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<uint8_t> bytes(size > 0 ? static_cast<size_t>(size) : 0);
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
  if (read != bytes.size() ||
      bytes.size() < static_cast<size_t>(kCheckpointHeaderBytes)) {
    return DataCorruptionError("checkpoint '" + path + "' is truncated");
  }
  const uint8_t* data = bytes.data();
  if (GetU32(data + kCkptOffMagic) != kCheckpointMagic) {
    return DataCorruptionError("bad checkpoint magic in '" + path + "'");
  }
  if (GetU32(data + kCkptOffVersion) != kCheckpointVersion) {
    return DataCorruptionError(
        "unsupported checkpoint version " +
        std::to_string(GetU32(data + kCkptOffVersion)) + " in '" + path +
        "'");
  }
  {
    std::vector<uint8_t> check(data, data + kCheckpointHeaderBytes);
    const uint64_t expected = GetU64(data + kCkptOffChecksum);
    PutU64(check, kCkptOffChecksum, 0);
    if (Fnv1a64(check.data(), check.size()) != expected) {
      return DataCorruptionError("checkpoint header checksum mismatch in '" +
                                 path + "'");
    }
  }
  const uint64_t num_entries = GetU64(data + kCkptOffNumEntries);
  const uint64_t payload_bytes = GetU64(data + kCkptOffPayloadBytes);
  // Derive the entry count bound from the bytes actually present before
  // trusting num_entries: checking `num_entries * 24 + 16` directly wraps
  // for a crafted header (~2^60 entries) whose checksum was recomputed,
  // and the decode loop would then read far past the buffer.
  const uint64_t capacity =
      static_cast<uint64_t>(bytes.size()) -
      static_cast<uint64_t>(kCheckpointHeaderBytes);
  if (payload_bytes != capacity || payload_bytes < 16 ||
      (payload_bytes - 16) % 24 != 0 ||
      num_entries != (payload_bytes - 16) / 24) {
    return DataCorruptionError("checkpoint '" + path +
                               "' payload size is inconsistent");
  }
  if (Fnv1a64(data + kCheckpointHeaderBytes, payload_bytes) !=
      GetU64(data + kCkptOffPayloadChecksum)) {
    return DataCorruptionError("checkpoint payload checksum mismatch in '" +
                               path + "'");
  }
  WalCheckpoint checkpoint;
  checkpoint.schema_digest = GetU64(data + kCkptOffSchemaDigest);
  checkpoint.epoch = GetU64(data + kCkptOffEpoch);
  checkpoint.wal_sequence = GetU64(data + kCkptOffWalSequence);
  std::vector<NodeTable::Entry> entries;
  entries.reserve(num_entries);
  const uint8_t* at = data + kCheckpointHeaderBytes;
  for (uint64_t i = 0; i < num_entries; ++i, at += 24) {
    RegionCounts counts;
    counts.positives = static_cast<int64_t>(GetU64(at + 8));
    counts.negatives = static_cast<int64_t>(GetU64(at + 16));
    if (counts.positives < 0 || counts.negatives < 0) {
      return DataCorruptionError("checkpoint '" + path +
                                 "' holds negative region counts");
    }
    entries.emplace_back(GetU64(at), counts);
  }
  checkpoint.leaf_counts = NodeTable(std::move(entries));
  checkpoint.totals.positives = static_cast<int64_t>(GetU64(at));
  checkpoint.totals.negatives = static_cast<int64_t>(GetU64(at + 8));
  if (checkpoint.totals.positives < 0 || checkpoint.totals.negatives < 0) {
    return DataCorruptionError("checkpoint '" + path +
                               "' holds negative totals");
  }
  return checkpoint;
}

}  // namespace remedy
