#ifndef AFFINITY_TESTS_MODEL_PAYLOAD_H_
#define AFFINITY_TESTS_MODEL_PAYLOAD_H_

// Byte offsets of the fields that corrupt-payload tests rewrite in a model
// payload of the current format (core/serialize.cc's layout), found by
// walking the payload from its magic.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace affinity::testing_payload {

inline std::uint64_t U64At(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof v);
  return v;
}

inline std::uint32_t U32At(const std::string& bytes, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof v);
  return v;
}

template <typename T>
void PutAt(std::string* bytes, std::size_t pos, T v) {
  std::memcpy(bytes->data() + pos, &v, sizeof v);
}

struct ModelPayloadLayout {
  std::size_t window = 0;          ///< data-matrix rows
  std::size_t k = 0;               ///< centre count
  std::size_t center_rows = 0;     ///< U64 row count of the centre matrix
  std::size_t center_data = 0;     ///< first double of the centre matrix
  std::size_t assignment = 0;      ///< first U32 cluster assignment
  std::size_t relationships = 0;   ///< first record: U64 key, U32 series, U32 cluster, U8 flag
  std::size_t pivots = 0;          ///< U64 pivot count, then 137-byte records
  std::size_t center_loc = 0;      ///< U64 row count, then (U64 cols, doubles) per row
  std::size_t build_stats = 0;     ///< U64 relationships, U64 pivots, ...
};

inline constexpr std::size_t kRelationshipRecordBytes = 8 + 9 + 6 * 8;
inline constexpr std::size_t kPivotRecordBytes = 8 + 9 + 14 * 8 + 8;

/// Walks the payload whose magic starts at `start`.
inline ModelPayloadLayout WalkModelPayload(const std::string& bytes, std::size_t start = 0) {
  ModelPayloadLayout l;
  std::size_t off = start + 8;  // magic, version
  l.window = U64At(bytes, off);
  off += 16 + l.window * U64At(bytes, off + 8) * sizeof(double);
  const std::size_t names = U64At(bytes, off);
  off += 8;
  for (std::size_t i = 0; i < names; ++i) off += 8 + U64At(bytes, off);
  off += 8;  // block-grid anchor
  l.center_rows = off;
  l.k = U64At(bytes, off + 8);
  l.center_data = off + 16;
  off += 16 + U64At(bytes, off) * l.k * sizeof(double);
  const std::size_t n = U64At(bytes, off);
  l.assignment = off + 8;
  off += 8 + 4 * n + 4;  // assignments, AFCLST iterations
  off += 8 + U64At(bytes, off) * sizeof(double);  // projection errors
  l.relationships = off + 8;
  off += 8 + U64At(bytes, off) * kRelationshipRecordBytes;
  l.pivots = off;
  off += 8 + U64At(bytes, off) * kPivotRecordBytes;
  off += 8 + U64At(bytes, off) * 4 * sizeof(double);  // series stats
  off += 8 + U64At(bytes, off) * 2 * sizeof(double);  // series affines
  l.center_loc = off;
  const std::size_t loc_rows = U64At(bytes, off);
  off += 8;
  for (std::size_t i = 0; i < loc_rows; ++i) off += 8 + U64At(bytes, off) * sizeof(double);
  l.build_stats = off;
  return l;
}

}  // namespace affinity::testing_payload

#endif  // AFFINITY_TESTS_MODEL_PAYLOAD_H_
