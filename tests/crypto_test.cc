#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/aes_backend.h"
#include "crypto/line_cipher.h"
#include "crypto/mac.h"
#include "crypto/multilinear_mac.h"
#include "obs/counters.h"

namespace meecc::crypto {
namespace {

Block hex_block(const char (&hex)[33]) {
  Block b{};
  for (int i = 0; i < 16; ++i) {
    auto nibble = [&](char c) -> std::uint8_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
      return static_cast<std::uint8_t>(c - 'a' + 10);
    };
    b[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                     nibble(hex[2 * i + 1]));
  }
  return b;
}

// FIPS-197 Appendix B / C.1 vectors.
TEST(Aes128, Fips197AppendixB) {
  const Aes128 aes(hex_block("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block pt = hex_block("3243f6a8885a308d313198a2e0370734");
  const Block expect = hex_block("3925841d02dc09fbdc118597196a0b32");
  EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes128, Fips197AppendixC1) {
  const Aes128 aes(hex_block("000102030405060708090a0b0c0d0e0f"));
  const Block pt = hex_block("00112233445566778899aabbccddeeff");
  const Block expect = hex_block("69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes128, DecryptInvertsEncrypt) {
  const Aes128 aes(hex_block("000102030405060708090a0b0c0d0e0f"));
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(aes.decrypt(aes.encrypt(pt)), pt);
  }
}

TEST(Aes128, DifferentKeysDifferentCiphertext) {
  const Block pt{};
  const Aes128 a(hex_block("00000000000000000000000000000000"));
  const Aes128 b(hex_block("00000000000000000000000000000001"));
  EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

Key128 test_key() { return hex_block("2b7e151628aed2a6abf7158809cf4f3c"); }

LineData random_line(Rng& rng) {
  LineData line{};
  for (auto& b : line) b = static_cast<std::uint8_t>(rng.next_below(256));
  return line;
}

TEST(LineCipher, RoundTrip) {
  const LineCipher cipher(test_key());
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const LineData pt = random_line(rng);
    const std::uint64_t addr = rng.next_u64();
    const std::uint64_t version = rng.next_below(1ull << 56);
    const LineData ct = cipher.encrypt(pt, addr, version);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(cipher.decrypt(ct, addr, version), pt);
  }
}

TEST(LineCipher, FreshnessVersionChangesKeystream) {
  const LineCipher cipher(test_key());
  const LineData pt{};
  const auto c1 = cipher.encrypt(pt, 0x1000, 1);
  const auto c2 = cipher.encrypt(pt, 0x1000, 2);
  EXPECT_NE(c1, c2);
}

TEST(LineCipher, SpatialBindingAddressChangesKeystream) {
  const LineCipher cipher(test_key());
  const LineData pt{};
  const auto c1 = cipher.encrypt(pt, 0x1000, 1);
  const auto c2 = cipher.encrypt(pt, 0x1040, 1);
  EXPECT_NE(c1, c2);
  // Moving ciphertext to another address yields garbage, not the plaintext.
  EXPECT_NE(cipher.decrypt(c1, 0x1040, 1), pt);
}

TEST(LineCipher, WrongVersionDecryptsToGarbage) {
  const LineCipher cipher(test_key());
  Rng rng(3);
  const LineData pt = random_line(rng);
  const auto ct = cipher.encrypt(pt, 0x2000, 7);
  EXPECT_NE(cipher.decrypt(ct, 0x2000, 8), pt);
}

TEST(Mac, TagIs56Bits) {
  const MacFunction mac(test_key());
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const LineData data = random_line(rng);
    const auto t = mac.tag(rng.next_u64(), rng.next_below(1ull << 56), data);
    EXPECT_EQ(t & ~kMacMask, 0u);
  }
}

TEST(Mac, VerifyAcceptsGenuineTag) {
  const MacFunction mac(test_key());
  Rng rng(5);
  const LineData data = random_line(rng);
  const auto t = mac.tag(0xabc, 42, data);
  EXPECT_TRUE(mac.verify(0xabc, 42, data, t));
}

TEST(Mac, AnySingleBitFlipInDataBreaksTag) {
  const MacFunction mac(test_key());
  Rng rng(6);
  LineData data = random_line(rng);
  const auto t = mac.tag(0xabc, 42, data);
  for (int trial = 0; trial < 32; ++trial) {
    const auto byte = rng.next_below(data.size());
    const auto bit = rng.next_below(8);
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_FALSE(mac.verify(0xabc, 42, data, t));
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);  // restore
  }
}

TEST(Mac, ContextBindsAddressAndVersion) {
  const MacFunction mac(test_key());
  Rng rng(7);
  const LineData data = random_line(rng);
  const auto t = mac.tag(0xabc, 42, data);
  EXPECT_FALSE(mac.verify(0xabd, 42, data, t));  // moved
  EXPECT_FALSE(mac.verify(0xabc, 41, data, t));  // replayed old version
}

TEST(Mac, TagsDifferAcrossKeys) {
  const MacFunction a(test_key());
  const MacFunction b(hex_block("000102030405060708090a0b0c0d0e0f"));
  const LineData data{};
  EXPECT_NE(a.tag(1, 2, data), b.tag(1, 2, data));
}

TEST(Mac, RejectsNonBlockMultipleInput) {
  const MacFunction mac(test_key());
  std::array<std::uint8_t, 15> short_data{};
  EXPECT_THROW((void)mac.tag(1, 2, short_data), meecc::CheckFailure);
}

// ------------------------------------------------------- AES backend --

Block random_block(Rng& rng) {
  Block block{};
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_below(256));
  return block;
}

// The CPUID-selected backend (AES-NI on most x86 hosts, else the reference
// cipher itself) must compute exactly the reference FIPS-197 function:
// known answers, pipelined encrypt_blocks at every batch size, and random
// blocks under random keys.
TEST(AesBackend, SelectedBackendMatchesReference) {
  const auto selected = make_aes_backend(test_key());
  EXPECT_EQ(selected->name(), resolve_aes_backend());

  // FIPS-197 Appendix B / C.1 known answers.
  EXPECT_EQ(selected->encrypt(hex_block("3243f6a8885a308d313198a2e0370734")),
            hex_block("3925841d02dc09fbdc118597196a0b32"));
  EXPECT_EQ(make_aes_backend(hex_block("000102030405060708090a0b0c0d0e0f"))
                ->encrypt(hex_block("00112233445566778899aabbccddeeff")),
            hex_block("69c4e0d86a7b0430d8cdb78070b4c55a"));

  // NIST SP 800-38A F.1.1 (ECB-AES128.Encrypt): four distinct plaintext
  // blocks under one key, run one at a time and as one pipelined batch, so
  // a lane swap or round-key mixup cannot cancel out.
  const Block pts[4] = {hex_block("6bc1bee22e409f96e93d7e117393172a"),
                        hex_block("ae2d8a571e03ac9c9eb76fac45af8e51"),
                        hex_block("30c81c46a35ce411e5fbc1191a0a52ef"),
                        hex_block("f69f2445df4f9b17ad2b417be66c3710")};
  const Block cts[4] = {hex_block("3ad77bb40d7a3660a89ecaf32466ef97"),
                        hex_block("f5d3d58503b9699de785895a96fdbaaf"),
                        hex_block("43b1cd7f598ece23881b00e3ed030688"),
                        hex_block("7b0c785e27e8ad3f8223207104725dd4")};
  Block out4[4];
  selected->encrypt_blocks(pts, out4, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(selected->encrypt(pts[i]), cts[i]) << "block " << i;
    EXPECT_EQ(out4[i], cts[i]) << "lane " << i;
  }

  // encrypt_blocks against the reference at every batch size around the
  // 8-wide unroll, including with out aliased onto in element-wise.
  const Aes128 reference(test_key());
  Rng rng(15);
  for (std::size_t n = 1; n <= 9; ++n) {
    std::vector<Block> in(n), out(n);
    for (auto& block : in) block = random_block(rng);
    selected->encrypt_blocks(in.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i], reference.encrypt(in[i])) << "n=" << n << " i=" << i;
    std::vector<Block> inplace = in;
    selected->encrypt_blocks(inplace.data(), inplace.data(), n);
    EXPECT_EQ(inplace, out) << "n=" << n << " (in-place)";
  }

  // 10k random blocks, with a fresh random key every 100.
  for (int key_round = 0; key_round < 100; ++key_round) {
    const Key128 key = random_block(rng);
    const Aes128 keyed_reference(key);
    const auto keyed = make_aes_backend(key);
    for (int i = 0; i < 100; ++i) {
      const Block pt = random_block(rng);
      ASSERT_EQ(keyed->encrypt(pt), keyed_reference.encrypt(pt))
          << "key round " << key_round << " block " << i;
    }
  }
}

// The line keystream is AES-CTR over four counter blocks (address ‖
// version ‖ block index): rebuild it from the reference cipher for random
// nonces and check a version bump yields a fresh keystream.
TEST(LineCipher, KeystreamIsReferenceAesCtrOverAddressAndVersion) {
  const LineCipher cipher(test_key());
  const Aes128 reference(test_key());
  const auto reference_keystream = [&](std::uint64_t address,
                                       std::uint64_t version) {
    LineData ks{};
    for (std::uint32_t block = 0; block < 4; ++block) {
      Block counter{};
      std::memcpy(counter.data(), &address, 8);
      const std::uint64_t v = (version << 8) | block;
      std::memcpy(counter.data() + 8, &v, 8);
      const Block out = reference.encrypt(counter);
      std::memcpy(ks.data() + 16 * block, out.data(), 16);
    }
    return ks;
  };
  Rng rng(19);
  const LineData zeros{};
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint64_t address = rng.next_u64() & ~0x3full;
    const std::uint64_t version = rng.next_below(1ull << 48);
    const LineData ks = reference_keystream(address, version);
    // CTR over an all-zero line exposes the keystream itself.
    EXPECT_EQ(cipher.encrypt(zeros, address, version), ks);
    EXPECT_NE(cipher.encrypt(zeros, address, version + 1), ks);
    EXPECT_EQ(cipher.encrypt(zeros, address, version + 1),
              reference_keystream(address, version + 1));
  }
}

// ------------------------------------------------------- pad caching --

TEST(PadCache, LineCipherHitsOnRepeatedNonceAndCountsIt) {
  obs::Registry registry;
  LineCipher cipher(test_key());
  const auto hit = registry.counter("crypto.pad", "hit");
  const auto miss = registry.counter("crypto.pad", "miss");
  cipher.set_pad_counters(hit, miss);

  Rng rng(15);
  const LineData pt = random_line(rng);
  const auto first = cipher.encrypt(pt, 0x1000, 1);
  EXPECT_EQ(hit.value(), 0u);
  EXPECT_EQ(miss.value(), 1u);
  // Same nonce again: served from the cache, identical keystream.
  EXPECT_EQ(cipher.encrypt(pt, 0x1000, 1), first);
  EXPECT_EQ(hit.value(), 1u);
  EXPECT_EQ(miss.value(), 1u);
  EXPECT_EQ(cipher.decrypt(first, 0x1000, 1), pt);
  EXPECT_EQ(hit.value(), 2u);
}

TEST(PadCache, VersionBumpInvalidates) {
  // Coherence: after a version bump the cache must not serve the old pad —
  // the warm cipher must agree at every version with a freshly built one,
  // whose cold cache runs the compute path.
  LineCipher cached(test_key());
  Rng rng(16);
  const LineData pt = random_line(rng);
  LineData previous{};
  for (std::uint64_t version = 1; version <= 8; ++version) {
    const auto warm = cached.encrypt(pt, 0x2000, version);  // fill
    EXPECT_EQ(cached.encrypt(pt, 0x2000, version), warm);   // hot
    EXPECT_EQ(LineCipher(test_key()).encrypt(pt, 0x2000, version), warm);
    EXPECT_NE(warm, previous);  // fresh keystream per version
    previous = warm;
  }
}

TEST(PadCache, MultilinearPadCacheCoherentAcrossVersions) {
  MultilinearMac cached(test_key());
  Rng rng(17);
  const LineData data = random_line(rng);
  for (std::uint64_t version = 1; version <= 8; ++version) {
    const auto warm = cached.tag(0x3000, version, data);
    EXPECT_EQ(cached.tag(0x3000, version, data), warm);
    EXPECT_EQ(MultilinearMac(test_key()).tag(0x3000, version, data), warm);
  }
  // And the cached tag still changes when the data changes.
  LineData flipped = data;
  flipped[0] ^= 1;
  EXPECT_NE(cached.tag(0x3000, 1, flipped), cached.tag(0x3000, 1, data));
}

TEST(PadCache, MultilinearCountsHitsAndMisses) {
  obs::Registry registry;
  MultilinearMac mac(test_key());
  const auto hit = registry.counter("crypto.pad", "hit");
  const auto miss = registry.counter("crypto.pad", "miss");
  mac.set_pad_counters(hit, miss);
  const LineData data{};
  (void)mac.tag(0x40, 1, data);
  (void)mac.tag(0x40, 1, data);
  (void)mac.tag(0x40, 2, data);  // version bump: miss, not a stale hit
  EXPECT_EQ(miss.value(), 2u);
  EXPECT_EQ(hit.value(), 1u);
}

}  // namespace
}  // namespace meecc::crypto
