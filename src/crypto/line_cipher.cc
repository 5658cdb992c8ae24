#include "crypto/line_cipher.h"

#include <cstring>

namespace meecc::crypto {

LineCipher::LineCipher(const Key128& key) : aes_(make_aes_backend(key)) {}

LineData LineCipher::compute_keystream(std::uint64_t address,
                                       std::uint64_t version) const {
  // The four counter blocks are independent, so one multi-block call lets
  // the AES-NI backend pipeline across them.
  std::array<Block, 4> counters{};
  for (std::uint32_t block = 0; block < 4; ++block) {
    std::memcpy(counters[block].data(), &address, 8);
    std::uint64_t v = (version << 8) | block;  // version ‖ block index
    std::memcpy(counters[block].data() + 8, &v, 8);
  }
  std::array<Block, 4> outs;
  aes_->encrypt_blocks(counters.data(), outs.data(), counters.size());
  LineData ks{};
  for (std::uint32_t block = 0; block < 4; ++block)
    std::memcpy(ks.data() + 16 * block, outs[block].data(), 16);
  return ks;
}

LineData LineCipher::encrypt(const LineData& plaintext, std::uint64_t address,
                             std::uint64_t version) const {
  const LineData* ks = cache_.find(address, version);
  LineData fresh;
  if (ks == nullptr) {
    fresh = compute_keystream(address, version);
    cache_.insert(address, version, fresh);
    ks = &fresh;
  }
  LineData out;
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = plaintext[i] ^ (*ks)[i];
  return out;
}

LineData LineCipher::decrypt(const LineData& ciphertext, std::uint64_t address,
                             std::uint64_t version) const {
  return encrypt(ciphertext, address, version);  // CTR is symmetric
}

}  // namespace meecc::crypto
