// Carter–Wegman multilinear MAC, modelled on the construction the real MEE
// uses (Gueron, "A Memory Encryption Engine Suitable for General Purpose
// Processors", 2016): hardware computes an inner product of message words
// with secret key words — fully parallelizable — and masks the result with a
// per-(address, version) AES-derived pad, so the expensive AES runs off the
// critical path while the data words stream in.
//
//   tag = truncate56( Σ_i  m_i · k_i  (mod 2^64)  +  pad(address, version) )
//
// where m_i are the 32-bit message words (so the 64-bit products cannot
// overflow individually), k_i are 64-bit key words expanded from the MAC key
// via AES-CTR, and pad = AES_K(address ‖ version) truncated.
//
// Security intuition (as in Wegman–Carter): the inner product is a universal
// hash; the one-time pad per (address, version) hides it. The simulator uses
// it interchangeably with the CBC-MAC (crypto/mac.h) via the MacScheme
// interface.
//
// Hot path: the pad is the only AES in the tag, and it depends solely on
// the nonce — so it is cached by (address, version) (crypto/pad_cache.h);
// a version bump changes the nonce and naturally misses.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/aes_backend.h"
#include "crypto/pad_cache.h"

namespace meecc::crypto {

/// Common interface for the MEE's line-authentication function.
class MacScheme {
 public:
  virtual ~MacScheme() = default;

  /// 56-bit tag over (address, version, data); data length must be a
  /// multiple of 16 bytes.
  virtual std::uint64_t tag(std::uint64_t address, std::uint64_t version,
                            std::span<const std::uint8_t> data) const = 0;

  bool verify(std::uint64_t address, std::uint64_t version,
              std::span<const std::uint8_t> data,
              std::uint64_t expected_tag) const;

  /// Pad-cache counter hook; a no-op for schemes without a cacheable pad
  /// (CBC-MAC feeds the data through AES, so there is nothing nonce-keyed
  /// to cache).
  virtual void set_pad_counters(obs::Counter /*hit*/, obs::Counter /*miss*/) {}

  /// Opaque pad-cache contents for snapshot/fork. Schemes without a pad
  /// cache export nullptr and ignore imports; import keeps the scheme's
  /// own counter handles.
  virtual std::shared_ptr<const void> export_pad_state() const {
    return nullptr;
  }
  virtual void import_pad_state(const void* /*state*/) {}

  /// Serialized counterparts of export/import_pad_state for the snapshot
  /// wire format. Schemes without a pad cache write/read nothing — both
  /// sides of a round trip must agree on the scheme kind (the config hash
  /// guarantees it).
  virtual void encode_pad_state(io::Writer& /*w*/) const {}
  virtual void decode_pad_state(io::Reader& /*r*/) {}
};

enum class MacKind {
  kCbcMac,       ///< CBC-MAC construction (crypto/mac.h)
  kMultilinear,  ///< Gueron-style Carter–Wegman multilinear MAC
};

class MultilinearMac final : public MacScheme {
 public:
  /// `max_data_bytes` bounds the message length (key words are expanded
  /// once); the MEE authenticates single 64 B lines.
  explicit MultilinearMac(const Key128& key, std::size_t max_data_bytes = 64);

  std::uint64_t tag(std::uint64_t address, std::uint64_t version,
                    std::span<const std::uint8_t> data) const override;

  void set_pad_counters(obs::Counter hit, obs::Counter miss) override {
    pad_cache_.set_counters(hit, miss);
  }

  std::shared_ptr<const void> export_pad_state() const override {
    return std::make_shared<PadCache<std::uint64_t>>(pad_cache_);
  }
  void import_pad_state(const void* state) override {
    if (state != nullptr)
      pad_cache_.adopt_contents(
          *static_cast<const PadCache<std::uint64_t>*>(state));
  }

  void encode_pad_state(io::Writer& w) const override {
    pad_cache_.encode_state(w);
  }
  void decode_pad_state(io::Reader& r) override { pad_cache_.decode_state(r); }

 private:
  std::uint64_t pad(std::uint64_t address, std::uint64_t version) const;
  /// The universal-hash part of the tag (everything except the pad).
  std::uint64_t inner_product(std::span<const std::uint8_t> data) const;

  std::unique_ptr<const AesBackend> aes_;
  std::vector<std::uint64_t> key_words_;  // one 64-bit word per 32-bit m_i
  mutable PadCache<std::uint64_t> pad_cache_;
};

/// Factory used by the MEE engine.
std::unique_ptr<MacScheme> make_mac_scheme(MacKind kind, const Key128& key);

}  // namespace meecc::crypto
