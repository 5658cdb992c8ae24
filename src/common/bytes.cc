#include "common/bytes.h"

#include <bit>
#include <cstring>

namespace meecc::io {

namespace {

void append_le(std::string& out, std::uint64_t v, unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t load_le(const void* p, unsigned bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i) v |= std::uint64_t{b[i]} << (8 * i);
  return v;
}

}  // namespace

void Writer::u32(std::uint32_t v) { append_le(out_, v, 4); }
void Writer::u64(std::uint64_t v) { append_le(out_, v, 8); }
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u64(s.size());
  out_.append(s.data(), s.size());
}

void Writer::bytes(const void* data, std::size_t n) {
  out_.append(static_cast<const char*>(data), n);
}

const void* Reader::need(std::size_t n) {
  if (data_.size() - pos_ < n)
    throw DecodeError("payload underflow: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(data_.size() - pos_));
  const void* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() {
  return static_cast<std::uint8_t>(*static_cast<const char*>(need(1)));
}
std::uint32_t Reader::u32() {
  return static_cast<std::uint32_t>(load_le(need(4), 4));
}
std::uint64_t Reader::u64() { return load_le(need(8), 8); }
double Reader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t Reader::count(std::size_t min_bytes_per_item) {
  const std::uint64_t n = u64();
  if (min_bytes_per_item != 0 && n > remaining() / min_bytes_per_item)
    throw DecodeError("item count " + std::to_string(n) +
                      " exceeds remaining payload");
  return n;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > remaining())
    throw DecodeError("string length " + std::to_string(n) +
                      " exceeds remaining payload");
  const char* p = static_cast<const char*>(need(static_cast<std::size_t>(n)));
  return std::string(p, static_cast<std::size_t>(n));
}

void Reader::bytes(void* out, std::size_t n) { std::memcpy(out, need(n), n); }

void Reader::expect_done() const {
  if (!done())
    throw DecodeError("payload has " + std::to_string(remaining()) +
                      " trailing bytes");
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  return fnv1a64(bytes, 0xcbf29ce484222325ULL);
}

std::string_view to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kBadMagic: return "bad-magic";
    case FrameStatus::kBadVersion: return "format-version-mismatch";
    case FrameStatus::kBadChecksum: return "checksum-mismatch";
    case FrameStatus::kConfigMismatch: return "config-hash-mismatch";
  }
  return "?";
}

namespace {
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8;
}  // namespace

std::string write_frame(std::uint64_t magic, std::uint32_t version,
                        std::uint64_t config_hash, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size() + 8);
  append_le(out, magic, 8);
  append_le(out, version, 4);
  append_le(out, config_hash, 8);
  append_le(out, payload.size(), 8);
  out.append(payload.data(), payload.size());
  append_le(out, fnv1a64(payload), 8);
  return out;
}

FrameView read_frame(std::string_view bytes, std::uint64_t magic,
                     std::uint32_t version,
                     std::optional<std::uint64_t> expected_config_hash) {
  FrameView view;
  if (bytes.size() < kHeaderSize) return view;  // kTruncated
  if (load_le(bytes.data(), 8) != magic) {
    view.status = FrameStatus::kBadMagic;
    return view;
  }
  view.version = static_cast<std::uint32_t>(load_le(bytes.data() + 8, 4));
  view.config_hash = load_le(bytes.data() + 12, 8);
  if (view.version != version) {
    view.status = FrameStatus::kBadVersion;
    return view;
  }
  if (expected_config_hash && view.config_hash != *expected_config_hash) {
    view.status = FrameStatus::kConfigMismatch;
    return view;
  }
  const std::uint64_t payload_size = load_le(bytes.data() + 20, 8);
  // Overflow-safe truncation check: a corrupt length field may be enormous.
  if (bytes.size() < kHeaderSize + 8 ||
      payload_size > bytes.size() - kHeaderSize - 8) {
    view.status = FrameStatus::kTruncated;
    return view;
  }
  const std::string_view payload = bytes.substr(kHeaderSize,
                                                static_cast<std::size_t>(payload_size));
  const std::uint64_t stored =
      load_le(bytes.data() + kHeaderSize + payload_size, 8);
  if (fnv1a64(payload) != stored) {
    view.status = FrameStatus::kBadChecksum;
    return view;
  }
  view.status = FrameStatus::kOk;
  view.payload = payload;
  return view;
}

}  // namespace meecc::io
