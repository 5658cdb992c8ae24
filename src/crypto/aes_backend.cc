#include "crypto/aes_backend.h"

#include "common/check.h"
#include "crypto/aes_internals.h"

#if defined(__x86_64__) || defined(__i386__)
#define MEECC_AESNI_COMPILED 1
#include <wmmintrin.h>
#endif

namespace meecc::crypto {
namespace {

/// Reference backend: the byte-wise FIPS-197 implementation, the fallback
/// on CPUs without AES-NI and the oracle the AES-NI backend is tested
/// against.
class ReferenceBackend final : public AesBackend {
 public:
  explicit ReferenceBackend(const Key128& key) : aes_(key) {}
  std::string_view name() const override { return "reference"; }
  Block encrypt(const Block& plaintext) const override {
    return aes_.encrypt(plaintext);
  }

 private:
  Aes128 aes_;
};

#ifdef MEECC_AESNI_COMPILED

/// One hardware round instruction per AES round. Compiled with
/// per-function target attributes (no global -maes), so the binary still
/// runs on CPUs without the extension — make_aes_backend() consults CPUID
/// before ever constructing this backend.
///
/// Round keys come from the shared portable key schedule (aes_internals.h)
/// instead of aeskeygenassist gymnastics: key setup is off the hot path,
/// and one schedule shared with the reference cipher means the two cannot
/// disagree.
class AesniBackend final : public AesBackend {
 public:
  explicit AesniBackend(const Key128& key) { init(key); }

  std::string_view name() const override { return "aesni"; }

  __attribute__((target("aes,sse2"))) Block
  encrypt(const Block& plaintext) const override {
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(plaintext.data()));
    s = _mm_xor_si128(s, enc_[0]);
    for (int round = 1; round < 10; ++round) s = _mm_aesenc_si128(s, enc_[round]);
    s = _mm_aesenclast_si128(s, enc_[10]);
    Block out;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), s);
    return out;
  }

  /// Pipelined multi-block encryption: the aesenc units are fully
  /// pipelined (latency ~4 cycles, throughput 1-2/cycle), so running up to
  /// eight independent states through each round back-to-back hides nearly
  /// all of the per-block latency. Remainders shorter than 8 loop the same
  /// code with a partial state count.
  __attribute__((target("aes,sse2"))) void encrypt_blocks(
      const Block* in, Block* out, std::size_t n) const override {
    std::size_t i = 0;
    while (i < n) {
      const std::size_t lane_count = n - i < 8 ? n - i : 8;
      __m128i s[8];
      for (std::size_t lane = 0; lane < lane_count; ++lane)
        s[lane] = _mm_xor_si128(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(in[i + lane].data())),
            enc_[0]);
      for (int round = 1; round < 10; ++round)
        for (std::size_t lane = 0; lane < lane_count; ++lane)
          s[lane] = _mm_aesenc_si128(s[lane], enc_[round]);
      for (std::size_t lane = 0; lane < lane_count; ++lane)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out[i + lane].data()),
                         _mm_aesenclast_si128(s[lane], enc_[10]));
      i += lane_count;
    }
  }

 private:
  __attribute__((target("aes,sse2"))) void init(const Key128& key) {
    const detail::RoundKeys round_keys = detail::expand_key(key);
    for (int round = 0; round < 11; ++round)
      enc_[round] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(round_keys[round].data()));
  }

  __m128i enc_[11];
};

bool aesni_supported() { return __builtin_cpu_supports("aes"); }

#else  // !MEECC_AESNI_COMPILED

bool aesni_supported() { return false; }

#endif

}  // namespace

std::string_view resolve_aes_backend(std::string_view name) {
  MEECC_CHECK(name == kAutoBackend);
  return aesni_supported() ? "aesni" : "reference";
}

std::unique_ptr<const AesBackend> make_aes_backend(const Key128& key) {
#ifdef MEECC_AESNI_COMPILED
  if (aesni_supported()) return std::make_unique<AesniBackend>(key);
#endif
  return std::make_unique<ReferenceBackend>(key);
}

}  // namespace meecc::crypto
