// Software AES-128 (FIPS-197), encrypt and decrypt.
//
// The MEE model uses real cryptography — protected lines in simulated DRAM
// are genuinely ciphertext and tree MACs genuinely verify — so tampering
// tests exercise the same code paths a hardware MEE would. This is the
// straightforward table-free byte implementation: the "reference" backend
// (crypto/aes_backend.h) on CPUs without AES-NI, and the oracle the AES-NI
// backend is validated against.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace meecc::crypto {

using Block = std::array<std::uint8_t, 16>;
using Key128 = std::array<std::uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const Key128& key);

  Block encrypt(const Block& plaintext) const;
  Block decrypt(const Block& ciphertext) const;

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::array<std::uint8_t, 16>, 11> round_keys_{};
};

}  // namespace meecc::crypto
