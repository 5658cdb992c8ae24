// Snapshot wire format: canonical byte serialization of SystemSnapshot.
//
// A SystemSnapshot holds values some of which cannot be rebuilt from bytes
// alone — a cache image decodes against its cache's geometry and policy
// stack, the MAC pad state is type-erased behind MacScheme. So both
// directions borrow a "shape" System built from the identical config:
// encode reads the snapshot's payload through the shape's component types,
// and decode starts from shape.snapshot() (every component correctly
// constructed) and overwrites the mutable payload via the per-component
// hooks (SetAssocCache::decode_image, encode_state/decode_state).
//
// Canonical means byte-identical across hosts and runs for equal state:
// hash-map contents (DRAM image) are sorted before writing, doubles ride as
// bit patterns, and nothing host-dependent (pointers, capacities) is
// written. The setup store hashes these bytes, and the determinism tests
// compare them directly.
//
// kSnapshotFormatVersion MUST be bumped whenever any component's encoding
// changes — including the per-component hooks in cache/, crypto/, mee/ —
// so stale files are rejected with FrameStatus::kBadVersion instead of
// misdecoding. See DESIGN.md "Snapshot wire format".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "sim/system.h"

namespace meecc::sim {

/// "MEECSNAP" — identifies a framed standalone snapshot file.
inline constexpr std::uint64_t kSnapshotMagic = 0x4d45454353'4e4150ULL;
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/// Appends the canonical encoding of `snap` to `w`. `shape` must be built
/// from the donor's config; its MAC pad cache is used as scratch.
void encode_snapshot(io::Writer& w, System& shape, const SystemSnapshot& snap);

/// Reads one snapshot from `r` (the inverse of encode_snapshot). Throws
/// io::DecodeError on any structural mismatch. `shape` must be built from
/// the same config the snapshot was encoded against.
SystemSnapshot decode_snapshot(io::Reader& r, System& shape);

/// Framed standalone snapshot file: write_frame(kSnapshotMagic,
/// kSnapshotFormatVersion, config_hash, encode_snapshot(...)).
std::string serialize_snapshot(System& shape, const SystemSnapshot& snap,
                               std::uint64_t config_hash);

/// Validates the frame (distinct FrameStatus per corruption mode) and
/// decodes the payload. On any non-kOk status returns that status and no
/// snapshot; a decode failure inside a valid frame throws io::DecodeError.
struct SnapshotReadResult {
  io::FrameStatus status = io::FrameStatus::kTruncated;
  std::unique_ptr<SystemSnapshot> snapshot;  ///< set only when status == kOk
};
SnapshotReadResult deserialize_snapshot(System& shape, std::string_view bytes,
                                        std::uint64_t expected_config_hash);

}  // namespace meecc::sim
