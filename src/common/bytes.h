// Canonical little-endian byte codec for the snapshot / setup-store wire
// format, plus the framed container every serialized artifact ships in.
//
// Writer/Reader are deliberately dumb: fixed-width little-endian integers,
// bit-cast doubles, and length-prefixed strings. Canonical bytes matter more
// than compactness here — two encodes of the same state must be
// byte-identical so content hashes and golden files stay stable across
// hosts and runs.
//
// The frame wraps a payload with everything a reader needs to refuse a file
// it cannot trust: a magic number (what kind of artifact), a format version
// (bumped whenever any component's encoding changes — see DESIGN.md), the
// producer's config hash (so a stale or foreign setup can never be silently
// reused), the payload length, and an FNV-1a checksum over the payload.
// read_frame() reports a distinct FrameStatus per failure mode; callers
// treat anything but kOk as "rebuild from scratch", never as an error that
// aborts the run.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace meecc::io {

/// Thrown by Reader on underflow and by component decoders on any payload
/// that does not match the expected shape. A frame whose checksum passed can
/// still raise this if it was produced by incompatible code — callers along
/// the setup-cache path turn it into a fresh build.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< exact bit pattern (std::bit_cast)
  void str(std::string_view s);  ///< u64 length + raw bytes
  void bytes(const void* data, std::size_t n);

  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  void bytes(void* out, std::size_t n);
  /// Reads a u64 item count for a decoder about to size an allocation from
  /// it. Throws DecodeError when `count` items of at least
  /// `min_bytes_per_item` bytes each cannot fit in the remaining payload,
  /// so a corrupted count fails the decode instead of the allocator.
  std::uint64_t count(std::size_t min_bytes_per_item);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Decoders call this last: trailing bytes mean the payload was produced
  /// by a different (newer) encoder than the version field admitted.
  void expect_done() const;

 private:
  const void* need(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// FNV-1a over the bytes — the frame checksum and the content-address hash
/// of the setup store. Not cryptographic; corruption detection only.
std::uint64_t fnv1a64(std::string_view bytes);
/// Chained variant for hashing several fields into one digest.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed);

// --- framed container ----------------------------------------------------

enum class FrameStatus {
  kOk,
  kTruncated,       ///< shorter than header + declared payload + checksum
  kBadMagic,        ///< not this kind of artifact (or not ours at all)
  kBadVersion,      ///< wire format version differs from the reader's
  kBadChecksum,     ///< payload bytes do not hash to the stored checksum
  kConfigMismatch,  ///< config hash differs from what the reader expects
};

std::string_view to_string(FrameStatus status);

struct FrameView {
  FrameStatus status = FrameStatus::kTruncated;
  std::string_view payload;         ///< valid only when status == kOk
  std::uint32_t version = 0;        ///< as stored (valid past the magic check)
  std::uint64_t config_hash = 0;    ///< as stored
};

/// magic(8) | version(4) | config_hash(8) | payload_size(8) | payload |
/// fnv1a64(payload)(8), all little-endian.
std::string write_frame(std::uint64_t magic, std::uint32_t version,
                        std::uint64_t config_hash, std::string_view payload);

/// Validates in order: length, magic, version, config hash, checksum — so
/// each corruption mode maps to one distinct status. Pass nullopt to skip
/// the config-hash comparison (the stored hash is still returned).
FrameView read_frame(std::string_view bytes, std::uint64_t magic,
                     std::uint32_t version,
                     std::optional<std::uint64_t> expected_config_hash);

}  // namespace meecc::io
