#ifndef REMEDY_DATA_SHARD_FILE_H_
#define REMEDY_DATA_SHARD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "data/schema.h"

namespace remedy {

// On-disk format of one spilled columnar shard (see DESIGN.md,
// "Out-of-core shard store").
//
// A spilled store is a directory of files shard-000000.rcs,
// shard-000001.rcs, ... — one per 256k-row shard, every value
// little-endian. Each file is a checksummed header followed by the shard's
// raw code arrays, laid out exactly as the counting kernels read them:
//
//   [fixed 64-byte header][one width byte per column][zero pad to 64]
//   [column 0 codes][pad to 64][column 1 codes][pad to 64]...
//   [labels, one byte per row][pad to 64]
//
// Every segment starts 64-byte aligned so the mmap'd arrays satisfy the
// SIMD kernels' (and plain u16 loads') alignment with no copying. The
// header carries the schema digest, row count, per-column code widths and
// positive-label count, so OpenSpilled can validate a store and compute
// its totals without touching any payload byte — payloads are only ever
// faulted in by the tally pass itself.

inline constexpr uint32_t kShardFileMagic = 0x48534352u;  // "RCSH"
inline constexpr uint32_t kShardFileVersion = 1;
// Segment alignment of the payload arrays (and the header size rounding).
inline constexpr int64_t kShardFileAlign = 64;
// Fixed header bytes before the per-column width array.
inline constexpr int64_t kShardFileFixedBytes = 64;

// Digest of the schema a store was spilled from: attribute names and value
// dictionaries, the protected positions, and the label name. A store only
// opens against a schema with the same digest, so stale or foreign shard
// directories are rejected before any row is read.
uint64_t SchemaDigest(const DataSchema& schema);

struct ShardFileHeader {
  uint32_t shard_index = 0;
  int64_t num_rows = 0;
  int64_t num_positives = 0;
  uint64_t schema_digest = 0;
  int64_t payload_bytes = 0;
  uint64_t payload_checksum = 0;
  std::vector<uint8_t> column_widths;  // 1 (u8 codes) or 2 (u16 codes)

  int num_columns() const { return static_cast<int>(column_widths.size()); }

  // Serialized header size: fixed bytes + width array, rounded up to
  // kShardFileAlign. The payload starts here.
  int64_t HeaderBytes() const;

  // Offsets within the payload (relative to HeaderBytes()); every segment
  // is kShardFileAlign-aligned.
  int64_t ColumnOffset(int position) const;
  int64_t LabelOffset() const;
  // Payload size the layout implies; a valid header's payload_bytes field
  // equals this, and the file size equals HeaderBytes() + payload_bytes.
  int64_t ComputedPayloadBytes() const;
};

// Serializes the header; the embedded header checksum is computed over the
// returned buffer with its own field zeroed.
std::vector<uint8_t> EncodeShardFileHeader(const ShardFileHeader& header);

// Parses and validates a header from the first `size` bytes of a shard
// file: magic, version, checksum, width values, and payload-size
// consistency. Schema digest and shard index are the caller's to check.
StatusOr<ShardFileHeader> DecodeShardFileHeader(const uint8_t* data,
                                                size_t size);

// Reads and validates the header of `path`, including that the file size
// is exactly HeaderBytes() + payload_bytes — a truncated or grown spill is
// a clean kDataCorruption here, before anything is mapped.
StatusOr<ShardFileHeader> ReadShardFileHeader(const std::string& path);

// File name of shard `index` within a store directory: "shard-000042.rcs".
std::string ShardFileName(int shard_index);

}  // namespace remedy

#endif  // REMEDY_DATA_SHARD_FILE_H_
