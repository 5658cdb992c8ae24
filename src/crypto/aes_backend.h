// The AES-128 block function behind the line cipher and the MACs.
//
// The simulator's functional-crypto wall-clock is dominated by AES: every
// MEE walk pays real AES-128-CTR line crypto plus MAC pads. Two
// implementations compute the identical FIPS-197 function, and the one in
// use changes only how fast a run finishes, never its results (the timing
// MODEL is charged in simulated cycles, not host time):
//   reference  byte-wise FIPS-197 (crypto/aes128.h) — the validation oracle
//   aesni      hardware AES round instructions, picked whenever CPUID
//              reports the AES extension
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>

#include "crypto/aes128.h"

namespace meecc::crypto {

/// The only name resolve_aes_backend() accepts: "whatever this CPU runs".
inline constexpr std::string_view kAutoBackend = "auto";

/// One AES-128 implementation holding its expanded key schedule.
class AesBackend {
 public:
  virtual ~AesBackend() = default;

  /// The concrete backend name ("reference" or "aesni").
  virtual std::string_view name() const = 0;

  virtual Block encrypt(const Block& plaintext) const = 0;

  /// Encrypts `n` independent blocks: out[i] = AES_K(in[i]). Bit-identical
  /// to calling encrypt() in a loop — the point is host speed: the AES-NI
  /// backend keeps several blocks in flight at once (the AES round
  /// instructions are pipelined, so 4-8 independent blocks cost barely
  /// more than one). `in` and `out` may alias element-wise (out == in) but
  /// must not partially overlap.
  virtual void encrypt_blocks(const Block* in, Block* out,
                              std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = encrypt(in[i]);
  }
};

/// Name of the backend make_aes_backend() picks on this CPU: "aesni" when
/// CPUID reports the AES extension, else "reference". `name` must be
/// kAutoBackend.
std::string_view resolve_aes_backend(std::string_view name = kAutoBackend);

/// Keyed instance of the backend resolve_aes_backend() names.
std::unique_ptr<const AesBackend> make_aes_backend(const Key128& key);

}  // namespace meecc::crypto
