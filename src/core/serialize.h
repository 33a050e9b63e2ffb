#ifndef AFFINITY_CORE_SERIALIZE_H_
#define AFFINITY_CORE_SERIALIZE_H_

/// \file serialize.h
/// Binary persistence for the AffinityModel (extension).
///
/// SYMEX over stock-data fits ~500k relationships; persisting the model
/// lets a deployment build once and answer queries from a cold start in
/// milliseconds. The format is a versioned little-structured binary dump:
///
///   magic "AFFM" | u32 version | data matrix | clustering | affHash |
///   pivotHash | per-series stats | series-level relationships |
///   centre L-measures | build stats
///
/// The SCAPE index is *not* serialized: rebuilding it from a loaded model
/// is linear and fast (Fig. 14), and that keeps the format free of index
/// layout details. Byte order is native (documented non-goal: moving model
/// files between endiannesses).
///
/// The stream-level entry points (`WriteModelStream` / `ReadModelStream`)
/// expose the same framed payload over an open stream — the unit a shard
/// manifest (src/shard) embeds once per shard, so a whole sharded
/// deployment round-trips through one file.

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/symex.h"

namespace affinity::core {

/// Current serialization format version. v2 added the data matrix's
/// block-grid anchor (ts::DataMatrix::anchor_row, DESIGN.md §10) so a
/// restored window keeps its place on the absolute summation grid; v1
/// payloads still load, defaulting the anchor to 0 (the historic order
/// they were written under).
inline constexpr std::uint32_t kModelFormatVersion = 2;
inline constexpr std::uint32_t kMinModelFormatVersion = 1;

/// Writes `model` to `path` (overwrites). IoError on filesystem failures.
Status SaveModel(const AffinityModel& model, const std::string& path);

/// Reads a model previously written by SaveModel.
/// IoError when unreadable; InvalidArgument on bad magic, unsupported
/// version, or a truncated/corrupt payload — including any series,
/// cluster or pivot id out of range, and any relationship whose pivot does
/// not take its target series' cluster.
StatusOr<AffinityModel> LoadModel(const std::string& path);

/// Writes one framed model payload (magic + version + body) to an open
/// binary stream, leaving the stream positioned after it — composable:
/// a manifest writes its own header, then N of these back to back.
/// IoError when the stream fails.
Status WriteModelStream(const AffinityModel& model, std::ostream& out);

/// Reads one framed model payload from an open binary stream (the inverse
/// of WriteModelStream), leaving the stream positioned after it.
StatusOr<AffinityModel> ReadModelStream(std::istream& in);

}  // namespace affinity::core

#endif  // AFFINITY_CORE_SERIALIZE_H_
