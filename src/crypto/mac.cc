#include "crypto/mac.h"

#include <cstring>

#include "common/check.h"

namespace meecc::crypto {

MacFunction::MacFunction(const Key128& key) : aes_(make_aes_backend(key)) {}

std::uint64_t MacFunction::tag(std::uint64_t address, std::uint64_t version,
                               std::span<const std::uint8_t> data) const {
  MEECC_CHECK(data.size() % 16 == 0);
  Block state{};
  // First block authenticates the context: address ‖ version.
  std::memcpy(state.data(), &address, 8);
  std::memcpy(state.data() + 8, &version, 8);
  state = aes_->encrypt(state);
  for (std::size_t off = 0; off < data.size(); off += 16) {
    for (std::size_t i = 0; i < 16; ++i) state[i] ^= data[off + i];
    state = aes_->encrypt(state);
  }
  std::uint64_t t = 0;
  std::memcpy(&t, state.data(), 8);
  return t & kMacMask;
}

bool MacFunction::verify(std::uint64_t address, std::uint64_t version,
                         std::span<const std::uint8_t> data,
                         std::uint64_t expected_tag) const {
  return tag(address, version, data) == (expected_tag & kMacMask);
}

}  // namespace meecc::crypto
