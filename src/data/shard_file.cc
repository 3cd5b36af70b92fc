#include "data/shard_file.h"

#include <cstdio>
#include <cstring>
#include <sys/stat.h>

namespace remedy {
namespace {

int64_t RoundUpAligned(int64_t bytes) {
  return (bytes + kShardFileAlign - 1) / kShardFileAlign * kShardFileAlign;
}

// Little-endian scalar writes/reads, independent of host byte order.
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

// Fixed-part field offsets (see the layout comment in the header).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffShardIndex = 8;
constexpr size_t kOffNumColumns = 12;
constexpr size_t kOffNumRows = 16;
constexpr size_t kOffNumPositives = 24;
constexpr size_t kOffSchemaDigest = 32;
constexpr size_t kOffPayloadBytes = 40;
constexpr size_t kOffPayloadChecksum = 48;
constexpr size_t kOffHeaderChecksum = 56;

void MixU64(uint64_t& digest, uint64_t value) {
  digest = Fnv1a64U64(digest, value);
}

void MixString(uint64_t& digest, const std::string& text) {
  MixU64(digest, text.size());
  digest = Fnv1a64(reinterpret_cast<const uint8_t*>(text.data()), text.size(),
                   digest);
}

}  // namespace

uint64_t SchemaDigest(const DataSchema& schema) {
  uint64_t digest = kFnv1a64Offset;
  MixU64(digest, static_cast<uint64_t>(schema.NumAttributes()));
  for (const AttributeSchema& attribute : schema.attributes()) {
    MixString(digest, attribute.name());
    MixU64(digest, static_cast<uint64_t>(attribute.Cardinality()));
    for (const std::string& value : attribute.values()) {
      MixString(digest, value);
    }
  }
  MixU64(digest, static_cast<uint64_t>(schema.NumProtected()));
  for (int index : schema.protected_indices()) {
    MixU64(digest, static_cast<uint64_t>(index));
  }
  MixString(digest, schema.label_name());
  return digest;
}

int64_t ShardFileHeader::HeaderBytes() const {
  return RoundUpAligned(kShardFileFixedBytes + num_columns());
}

int64_t ShardFileHeader::ColumnOffset(int position) const {
  int64_t offset = 0;
  for (int p = 0; p < position; ++p) {
    offset += RoundUpAligned(num_rows * column_widths[p]);
  }
  return offset;
}

int64_t ShardFileHeader::LabelOffset() const {
  return ColumnOffset(num_columns());
}

int64_t ShardFileHeader::ComputedPayloadBytes() const {
  return LabelOffset() + RoundUpAligned(num_rows);
}

std::vector<uint8_t> EncodeShardFileHeader(const ShardFileHeader& header) {
  std::vector<uint8_t> out(static_cast<size_t>(header.HeaderBytes()), 0);
  PutU32(out, kOffMagic, kShardFileMagic);
  PutU32(out, kOffVersion, kShardFileVersion);
  PutU32(out, kOffShardIndex, header.shard_index);
  PutU32(out, kOffNumColumns, static_cast<uint32_t>(header.num_columns()));
  PutU64(out, kOffNumRows, static_cast<uint64_t>(header.num_rows));
  PutU64(out, kOffNumPositives, static_cast<uint64_t>(header.num_positives));
  PutU64(out, kOffSchemaDigest, header.schema_digest);
  PutU64(out, kOffPayloadBytes, static_cast<uint64_t>(header.payload_bytes));
  PutU64(out, kOffPayloadChecksum, header.payload_checksum);
  for (int p = 0; p < header.num_columns(); ++p) {
    out[kShardFileFixedBytes + p] = header.column_widths[p];
  }
  // Checksum over the whole serialized header with its own field zeroed.
  PutU64(out, kOffHeaderChecksum, Fnv1a64(out.data(), out.size()));
  return out;
}

StatusOr<ShardFileHeader> DecodeShardFileHeader(const uint8_t* data,
                                                size_t size) {
  if (size < static_cast<size_t>(kShardFileFixedBytes)) {
    return DataCorruptionError("truncated shard header (" +
                               std::to_string(size) + " bytes)");
  }
  if (GetU32(data + kOffMagic) != kShardFileMagic) {
    return DataCorruptionError("bad shard file magic");
  }
  if (GetU32(data + kOffVersion) != kShardFileVersion) {
    return DataCorruptionError(
        "unsupported shard file version " +
        std::to_string(GetU32(data + kOffVersion)));
  }
  ShardFileHeader header;
  header.shard_index = GetU32(data + kOffShardIndex);
  const uint32_t num_columns = GetU32(data + kOffNumColumns);
  if (num_columns == 0 || num_columns > 32) {
    return DataCorruptionError("shard file declares " +
                               std::to_string(num_columns) + " columns");
  }
  header.num_rows = static_cast<int64_t>(GetU64(data + kOffNumRows));
  header.num_positives =
      static_cast<int64_t>(GetU64(data + kOffNumPositives));
  header.schema_digest = GetU64(data + kOffSchemaDigest);
  header.payload_bytes =
      static_cast<int64_t>(GetU64(data + kOffPayloadBytes));
  header.payload_checksum = GetU64(data + kOffPayloadChecksum);
  header.column_widths.resize(num_columns);
  if (size < static_cast<size_t>(header.HeaderBytes())) {
    return DataCorruptionError("truncated shard header (" +
                               std::to_string(size) + " of " +
                               std::to_string(header.HeaderBytes()) +
                               " bytes)");
  }
  for (uint32_t p = 0; p < num_columns; ++p) {
    header.column_widths[p] = data[kShardFileFixedBytes + p];
    if (header.column_widths[p] != 1 && header.column_widths[p] != 2) {
      return DataCorruptionError(
          "shard file column " + std::to_string(p) + " has code width " +
          std::to_string(header.column_widths[p]));
    }
  }
  // Verify the checksum over the serialized header with its field zeroed.
  std::vector<uint8_t> check(data, data + header.HeaderBytes());
  const uint64_t expected = GetU64(check.data() + kOffHeaderChecksum);
  PutU64(check, kOffHeaderChecksum, 0);
  if (Fnv1a64(check.data(), check.size()) != expected) {
    return DataCorruptionError("shard header checksum mismatch");
  }
  if (header.num_rows < 0 || header.num_positives < 0 ||
      header.num_positives > header.num_rows) {
    return DataCorruptionError("shard header row counts are inconsistent");
  }
  if (header.payload_bytes != header.ComputedPayloadBytes()) {
    return DataCorruptionError(
        "shard header payload size " + std::to_string(header.payload_bytes) +
        " does not match its layout (" +
        std::to_string(header.ComputedPayloadBytes()) + ")");
  }
  return header;
}

StatusOr<ShardFileHeader> ReadShardFileHeader(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return IoError("cannot open shard file '" + path + "'");
  }
  // The header is at most fixed bytes + 32 widths, rounded up: 128 bytes.
  uint8_t buffer[2 * kShardFileFixedBytes];
  const size_t read = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  StatusOr<ShardFileHeader> header = DecodeShardFileHeader(buffer, read);
  if (!header.ok()) {
    return header.status().WithContext("shard file '" + path + "'");
  }
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) {
    return IoError("cannot stat shard file '" + path + "'");
  }
  const int64_t expected_size =
      header.value().HeaderBytes() + header.value().payload_bytes;
  if (static_cast<int64_t>(info.st_size) != expected_size) {
    return DataCorruptionError(
        "shard file '" + path + "' is " + std::to_string(info.st_size) +
        " bytes, header declares " + std::to_string(expected_size) +
        " (truncated or overwritten spill)");
  }
  return header;
}

std::string ShardFileName(int shard_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%06d.rcs", shard_index);
  return name;
}

}  // namespace remedy
