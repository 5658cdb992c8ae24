#include "crypto/multilinear_mac.h"

#include <cstring>

#include "common/check.h"
#include "crypto/mac.h"

namespace meecc::crypto {

bool MacScheme::verify(std::uint64_t address, std::uint64_t version,
                       std::span<const std::uint8_t> data,
                       std::uint64_t expected_tag) const {
  return tag(address, version, data) == (expected_tag & kMacMask);
}

MultilinearMac::MultilinearMac(const Key128& key, std::size_t max_data_bytes)
    : aes_(make_aes_backend(key)) {
  MEECC_CHECK(max_data_bytes % 16 == 0 && max_data_bytes > 0);
  // Expand key words with AES-CTR over a fixed label: two 64-bit words per
  // encrypted block, one key word per 32-bit message word.
  const std::size_t words = max_data_bytes / 4;
  key_words_.reserve(words);
  std::uint64_t counter = 0;
  while (key_words_.size() < words) {
    Block in{};
    in[0] = 0x4b;  // 'K' — domain separation from the pad inputs
    std::memcpy(in.data() + 8, &counter, 8);
    ++counter;
    const Block out = aes_->encrypt(in);
    for (int half = 0; half < 2 && key_words_.size() < words; ++half) {
      std::uint64_t w = 0;
      std::memcpy(&w, out.data() + 8 * half, 8);
      key_words_.push_back(w | 1);  // odd key words: injective in low bits
    }
  }
}

std::uint64_t MultilinearMac::pad(std::uint64_t address,
                                  std::uint64_t version) const {
  if (const std::uint64_t* cached = pad_cache_.find(address, version))
    return *cached;
  Block in{};
  in[0] = 0x50;  // 'P'
  std::memcpy(in.data() + 1, &address, 7);
  std::memcpy(in.data() + 8, &version, 8);
  const Block out = aes_->encrypt(in);
  std::uint64_t p = 0;
  std::memcpy(&p, out.data(), 8);
  pad_cache_.insert(address, version, p);
  return p;
}

std::uint64_t MultilinearMac::inner_product(
    std::span<const std::uint8_t> data) const {
  MEECC_CHECK(data.size() % 16 == 0);
  MEECC_CHECK_MSG(data.size() / 4 <= key_words_.size(),
                  "message longer than the expanded key");
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i * 4 < data.size(); ++i) {
    std::uint32_t word = 0;
    std::memcpy(&word, data.data() + 4 * i, 4);
    acc += static_cast<std::uint64_t>(word) * key_words_[i];  // mod 2^64
  }
  // Fold the message length in so equal-prefix messages of different
  // lengths cannot collide.
  acc += static_cast<std::uint64_t>(data.size()) *
         key_words_[key_words_.size() - 1];
  return acc;
}

std::uint64_t MultilinearMac::tag(std::uint64_t address, std::uint64_t version,
                                  std::span<const std::uint8_t> data) const {
  return (inner_product(data) + pad(address, version)) & kMacMask;
}

namespace {

/// Adapter presenting the CBC construction through the MacScheme interface.
class CbcMacScheme final : public MacScheme {
 public:
  explicit CbcMacScheme(const Key128& key) : mac_(key) {}
  std::uint64_t tag(std::uint64_t address, std::uint64_t version,
                    std::span<const std::uint8_t> data) const override {
    return mac_.tag(address, version, data);
  }

 private:
  MacFunction mac_;
};

}  // namespace

std::unique_ptr<MacScheme> make_mac_scheme(MacKind kind, const Key128& key) {
  switch (kind) {
    case MacKind::kCbcMac:
      return std::make_unique<CbcMacScheme>(key);
    case MacKind::kMultilinear:
      return std::make_unique<MultilinearMac>(key, /*max_data_bytes=*/64);
  }
  MEECC_CHECK_MSG(false, "unknown MAC kind");
  return nullptr;
}

}  // namespace meecc::crypto
