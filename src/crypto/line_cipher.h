// AES-CTR encryption of 64 B memory lines with a compound nonce, modelled on
// the MEE's confidentiality mode (Gueron, 2016): the keystream depends on the
// line's physical address and its current version counter, so rewriting the
// same plaintext at the same address with a bumped version yields fresh
// ciphertext (freshness), and moving ciphertext between addresses breaks
// decryption (spatial binding).
//
// Hot path: the AES block function runs through the CPUID-selected backend
// (crypto/aes_backend.h), and computed keystreams are cached by their
// (address, version) nonce — repeated walks over the same hot lines (the
// prime+probe common case) skip AES entirely. A version bump changes the
// nonce, so the cache can never serve a stale keystream.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "crypto/aes_backend.h"
#include "crypto/pad_cache.h"

namespace meecc::crypto {

using LineData = std::array<std::uint8_t, 64>;

class LineCipher {
 public:
  explicit LineCipher(const Key128& key);

  /// Encrypts one 64 B line. `address` is the line's physical address,
  /// `version` the 56-bit freshness counter for the line.
  LineData encrypt(const LineData& plaintext, std::uint64_t address,
                   std::uint64_t version) const;

  /// CTR decryption (same keystream).
  LineData decrypt(const LineData& ciphertext, std::uint64_t address,
                   std::uint64_t version) const;

  /// Keystream-cache hit/miss counters; see crypto/pad_cache.h.
  void set_pad_counters(obs::Counter hit, obs::Counter miss) {
    cache_.set_counters(hit, miss);
  }

  /// Keystream-cache contents for snapshot/fork; import keeps this
  /// cipher's own counter handles.
  PadCache<LineData> export_pad_state() const { return cache_; }
  void import_pad_state(const PadCache<LineData>& state) {
    cache_.adopt_contents(state);
  }

  /// Serialized counterparts for the snapshot wire format.
  void encode_pad_state(io::Writer& w) const { cache_.encode_state(w); }
  void decode_pad_state(io::Reader& r) { cache_.decode_state(r); }

 private:
  LineData compute_keystream(std::uint64_t address,
                             std::uint64_t version) const;

  std::unique_ptr<const AesBackend> aes_;
  mutable PadCache<LineData> cache_;
};

}  // namespace meecc::crypto
