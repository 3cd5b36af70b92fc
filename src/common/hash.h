#ifndef REMEDY_COMMON_HASH_H_
#define REMEDY_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace remedy {

// The library's one byte-identity hash: FNV-1a 64. It checksums the .rcs
// shard files and the WAL, and it is the digest every parity suite and
// bench compares (IbsSetDigest, LeafCountsDigest, SchemaDigest).
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;

// FNV-1a 64 over a byte range; `seed` chains multi-segment digests.
inline uint64_t Fnv1a64(const uint8_t* data, size_t size,
                        uint64_t seed = kFnv1a64Offset) {
  uint64_t digest = seed;
  for (size_t i = 0; i < size; ++i) {
    digest ^= data[i];
    digest *= 0x100000001b3ull;
  }
  return digest;
}

// Chains the 8 little-endian bytes of `value` into `digest` — the same
// result as Fnv1a64 over the value's byte encoding, on any host order.
inline uint64_t Fnv1a64U64(uint64_t digest, uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (value >> (8 * i)) & 0xff;
  return Fnv1a64(bytes, sizeof(bytes), digest);
}

}  // namespace remedy

#endif  // REMEDY_COMMON_HASH_H_
