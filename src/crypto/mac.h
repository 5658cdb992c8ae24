// Truncated 56-bit MAC tags for the integrity tree, CBC-MAC over AES with the
// authenticated context (address, version) folded into the first block.
//
// The real MEE uses a Carter–Wegman multilinear MAC for hardware parallelism
// (Gueron, 2016); CBC-MAC gives the same interface contract the simulator
// needs — any change to data, address, or version flips the tag — with a
// well-understood software construction. Tags are truncated to 56 bits to
// match the MEE's per-line tag budget.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "crypto/aes_backend.h"

namespace meecc::crypto {

inline constexpr std::uint64_t kMacMask = (1ULL << 56) - 1;

class MacFunction {
 public:
  explicit MacFunction(const Key128& key);

  /// 56-bit tag over (address, version, data). `data` length must be a
  /// multiple of 16 bytes (the MEE always authenticates whole lines).
  std::uint64_t tag(std::uint64_t address, std::uint64_t version,
                    std::span<const std::uint8_t> data) const;

  bool verify(std::uint64_t address, std::uint64_t version,
              std::span<const std::uint8_t> data,
              std::uint64_t expected_tag) const;

 private:
  std::unique_ptr<const AesBackend> aes_;
};

}  // namespace meecc::crypto
