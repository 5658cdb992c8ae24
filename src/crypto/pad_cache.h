// Direct-mapped (address, version) → pad cache for AES-CTR keystreams and
// Carter–Wegman MAC pads.
//
// The MEE's per-line crypto is keyed by the compound nonce (address,
// version): a prime+probe loop re-walks the same hot lines at unchanged
// versions over and over, recomputing identical AES outputs each time.
// Caching the pad by its nonce skips that AES entirely — and because the
// version IS part of the key, a write's counter bump can never serve a
// stale pad: the new (address, version) pair simply misses and refills.
//
// Direct-mapped with a fixed slot count: O(1) lookup, bounded memory, and
// fully deterministic (no host-dependent eviction order), so a hit returns
// exactly the pad a fresh AES computation would.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "obs/counters.h"

namespace meecc::crypto {

/// Pad wire codec — one overload per pad type the MEE uses (64-bit MAC pads
/// and 64-byte keystream lines).
inline void encode_pad(io::Writer& w, std::uint64_t pad) { w.u64(pad); }
inline void decode_pad(io::Reader& r, std::uint64_t& pad) { pad = r.u64(); }
template <std::size_t N>
void encode_pad(io::Writer& w, const std::array<std::uint8_t, N>& pad) {
  w.bytes(pad.data(), N);
}
template <std::size_t N>
void decode_pad(io::Reader& r, std::array<std::uint8_t, N>& pad) {
  r.bytes(pad.data(), N);
}

template <typename Pad>
class PadCache {
 public:
  static constexpr std::size_t kSlots = 4096;  // power of two

  /// Counter handles for hit/miss accounting (typically crypto.pad.hit and
  /// crypto.pad.miss from the owning engine's registry). Several caches may
  /// share one pair; increments add.
  void set_counters(obs::Counter hit, obs::Counter miss) {
    hits_ = hit;
    misses_ = miss;
  }

  /// Resident pad for the nonce, or nullptr on a miss (counts either way).
  /// The pointer is valid until the next insert.
  const Pad* find(std::uint64_t address, std::uint64_t version) {
    if (entries_.empty()) entries_.resize(kSlots);
    Entry& entry = entries_[slot(address, version)];
    if (entry.valid && entry.address == address && entry.version == version) {
      hits_.inc();
      return &entry.pad;
    }
    misses_.inc();
    return nullptr;
  }

  /// Copies another cache's residents (slot table) while keeping this
  /// cache's own counter handles — the snapshot/fork path, where the donor
  /// belongs to a different System whose counters are gone.
  void adopt_contents(const PadCache& other) { entries_ = other.entries_; }

  /// Snapshot wire format: slot count + residents. Counter handles stay
  /// local, mirroring adopt_contents(). Invalid entries are stored as one
  /// flag byte — a direct-mapped slot only ever transitions default →
  /// valid, so eliding them loses nothing.
  void encode_state(io::Writer& w) const {
    w.u64(kSlots);
    w.u8(entries_.empty() ? 0 : 1);
    for (const Entry& entry : entries_) {
      w.u8(entry.valid ? 1 : 0);
      if (!entry.valid) continue;
      w.u64(entry.address);
      w.u64(entry.version);
      encode_pad(w, entry.pad);
    }
  }

  /// The stored slot count must equal kSlots, so a foreign or corrupted
  /// count is rejected before the slot table is allocated.
  void decode_state(io::Reader& r) {
    if (r.u64() != kSlots)
      throw io::DecodeError("pad-cache slot count mismatch");
    entries_.clear();
    if (r.u8() == 0) return;  // donor never allocated its slot table
    entries_.resize(kSlots);
    for (Entry& entry : entries_) {
      if (r.u8() == 0) continue;
      entry.address = r.u64();
      entry.version = r.u64();
      decode_pad(r, entry.pad);
      entry.valid = true;
    }
  }

  /// Installs the pad for the nonce.
  void insert(std::uint64_t address, std::uint64_t version, const Pad& pad) {
    if (entries_.empty()) entries_.resize(kSlots);
    Entry& entry = entries_[slot(address, version)];
    entry.address = address;
    entry.version = version;
    entry.pad = pad;
    entry.valid = true;
  }

 private:
  struct Entry {
    std::uint64_t address = 0;
    std::uint64_t version = 0;
    Pad pad{};
    bool valid = false;
  };

  std::size_t slot(std::uint64_t address, std::uint64_t version) const {
    // Fibonacci hash over the mixed nonce; line addresses share low zero
    // bits, so mix before masking.
    const std::uint64_t mixed =
        (address ^ (version * 0x9e3779b97f4a7c15ull)) * 0xff51afd7ed558ccdull;
    return static_cast<std::size_t>(mixed >> 32) & (kSlots - 1);
  }

  std::vector<Entry> entries_;  // allocated lazily on first use
  obs::Counter hits_;
  obs::Counter misses_;
};

}  // namespace meecc::crypto
