// The Memory Encryption Engine model.
//
// Sits "inside the memory controller": every access that reaches DRAM inside
// the protected data region goes through the engine, which
//   1. walks the integrity tree bottom-up (versions → L0 → L1 → L2 → root),
//      stopping at the FIRST level that hits in the MEE cache — a cached node
//      was verified when it was brought in, so the chain of trust is complete
//      (paper §2.2). The versions level is ALWAYS checked first, which is why
//      the paper builds its channel on versions lines (§3 challenge 2);
//   2. verifies the embedded MAC of every node fetched from DRAM, top-down,
//      each keyed by its (now trusted) parent counter;
//   3. verifies the data line's PD_Tag MAC and de/encrypts with AES-CTR under
//      the (address, version) compound nonce;
//   4. charges latency: a versions hit costs `versions_hit_extra` on top of
//      the DRAM data fetch; every tree node fetched from DRAM adds
//      `per_level_step` (partially-overlapped fetches — Fig. 5's ~65-cycle
//      spacing between adjacent hit-level peaks).
//
// The MEE cache tracks which node lines are resident/verified; node contents
// always live in simulated DRAM (the cache is a presence + recency model).
// Consequence: tamper tests must target non-resident nodes or flush the MEE
// cache first — same as attacking real hardware after the line aged out.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "common/types.h"
#include "crypto/line_cipher.h"
#include "crypto/mac.h"
#include "crypto/multilinear_mac.h"
#include "mem/address_map.h"
#include "mem/physical_memory.h"
#include "mee/levels.h"
#include "mee/node_codec.h"
#include "mee/tree_geometry.h"
#include "obs/hub.h"

namespace meecc::mee {

/// Integrity or freshness violation detected during a verify walk.
class TamperDetected : public std::runtime_error {
 public:
  TamperDetected(Level level, PhysAddr addr);

  Level level() const { return level_; }
  PhysAddr address() const { return addr_; }

 private:
  Level level_;
  PhysAddr addr_;
};

struct MeeLatencyConfig {
  Cycles versions_hit_extra = 156;  ///< MEE pipeline cost on a versions hit
  /// Extra cost of ANY versions miss: the AES-CTR keystream needs the
  /// version counter, so data decryption serializes behind the versions-line
  /// DRAM fetch (mostly un-overlappable — the paper's ≥~270-cycle hit↔miss
  /// gap, §5.1/§5.4).
  Cycles versions_miss_serialization = 200;
  /// Per additional tree level fetched beyond the versions line; these
  /// overlap the MAC pipeline, so the step is smaller (Fig. 5's spacing
  /// between the L0/L1/L2/root peaks).
  Cycles per_level_step = 45;
  double step_jitter_stddev = 5.0;
  Cycles write_update_extra = 85;   ///< counter bump + re-MAC on writes
  /// Engine occupancy per access (AES/MAC work): requests arriving while
  /// the engine is busy queue up. A single well-spaced stream never waits;
  /// a co-tenant hammering the MEE (Fig. 8c/d) makes everyone else's walks
  /// stochastically slower — the "MEE cache is highly utilized" noise the
  /// paper measures.
  Cycles service_base = 60;
  Cycles service_per_node = 60;
};

struct MeeConfig {
  cache::Geometry cache_geometry = cache::mee_cache_geometry();
  /// MEE-cache policy stack (indexing × replacement × fill) plus the
  /// periodic-rekey knob; defaults reproduce the hardware the paper
  /// reverse engineers (modulo / tree-plru / all ways, no rekey).
  cache::PolicyConfig cache_policy;
  MeeLatencyConfig latency;
  /// When false, skips AES/MAC computation (data stored as plaintext) for
  /// timing-only experiments; the walk, caching and latency are identical.
  bool functional_crypto = true;
  /// MAC construction for tree nodes and PD_Tags. The multilinear scheme
  /// mirrors the real MEE's Carter-Wegman design (Gueron, 2016).
  crypto::MacKind mac_kind = crypto::MacKind::kMultilinear;
  crypto::Key128 data_key{0x10, 0x01, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                          0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  crypto::Key128 mac_key{0x5a, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                         0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
};

struct MeeAccessResult {
  StopLevel stop_level = Level::kRoot;   ///< first MEE-cache hit level
  std::uint32_t nodes_fetched = 0;       ///< tree nodes pulled from DRAM
  Cycles extra_latency = 0;              ///< on top of the data DRAM fetch
};

/// Walk/verify tallies, derived on demand from the obs counters (the
/// counters are the single source of truth; this struct is a convenience
/// view so callers need not know the counter names).
struct MeeStats {
  std::array<std::uint64_t, 5> stops{};  ///< indexed by StopLevel
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t tag_hits = 0;
  std::uint64_t tag_misses = 0;
  std::uint64_t tampers_detected = 0;
};

class MeeEngine {
 public:
  /// `hub` (optional, borrowed) receives walk counters (mee.* groups,
  /// including the per-core stop-level distribution and the even/odd
  /// set-class split between versions-walk and PD_Tag lookups) plus "walk"
  /// trace events; it must outlive the engine.
  MeeEngine(const mem::AddressMap& map, mem::PhysicalMemory& memory,
            const MeeConfig& config, Rng rng, obs::Hub* hub = nullptr);

  /// Sentinel arrival time: "whenever the engine is free" — no queueing.
  /// Unit tests and standalone use default to this; the full-system path
  /// passes the simulated arrival time to model contention.
  static constexpr Cycles kArriveWhenIdle = ~Cycles{0};

  /// Read the 64 B protected line containing `data_addr`; plaintext is
  /// written to *out when non-null. Throws TamperDetected on MAC mismatch.
  MeeAccessResult read_line(CoreId core, PhysAddr data_addr,
                            mem::Line* out = nullptr,
                            Cycles now = kArriveWhenIdle);

  /// Write (encrypt + re-tag + bump the counter chain to the root).
  MeeAccessResult write_line(CoreId core, PhysAddr data_addr,
                             const mem::Line& plaintext,
                             Cycles now = kArriveWhenIdle);

  const TreeGeometry& geometry() const { return geometry_; }
  const cache::SetAssocCache& cache() const { return cache_; }
  cache::SetAssocCache& mutable_cache() { return cache_; }
  /// The MAC scheme. Snapshot serialization borrows it to encode/decode the
  /// type-erased pad state a State carries (sim/snapshot_io.cc).
  crypto::MacScheme& mac_scheme() { return *mac_; }
  /// Snapshot of the walk counters (single source of truth; see MeeStats).
  MeeStats stats() const;
  const MeeConfig& config() const { return config_; }
  /// Completed flush+rekey events (nonzero only with cache_policy.rekey_period).
  std::uint64_t rekeys() const { return rekeys_.value(); }

  /// Current version counter of a data line (tests / diagnostics).
  std::uint64_t version_counter(PhysAddr data_addr) const;

  /// Mutable engine state for snapshot/fork: MEE cache arrays (including
  /// any rekeyed indexing key), on-die root counters, RNG stream,
  /// occupancy horizon, rekey phase, and cipher/MAC pad-cache contents.
  /// Tree-node contents live in the System's PhysicalMemory and are
  /// captured there; obs counter handles stay with the engine.
  struct State {
    cache::CacheImagePtr cache;
    std::vector<std::uint64_t> root_counters;
    Rng rng;
    Cycles busy_until = 0;
    std::uint64_t walks_since_rekey = 0;
    crypto::PadCache<crypto::LineData> cipher_pads;
    std::shared_ptr<const void> mac_pads;
  };
  State export_state() const;
  void import_state(const State& state);

 private:
  struct WalkResult {
    StopLevel stop_level = Level::kRoot;
    /// Fetched levels in bottom-up order, versions first. Inline storage:
    /// a walk touches at most kDramLevels nodes and runs millions of times
    /// per experiment, so a heap-backed vector here is an allocation per
    /// walk.
    std::array<Level, kDramLevels> fetched{};
    std::uint32_t fetched_count = 0;
  };

  WalkResult walk_and_verify(CoreId core, std::uint64_t chunk);
  void count_walk(CoreId core, const WalkResult& walk, PhysAddr data_addr,
                  Cycles now, bool is_write);
  std::uint64_t parent_counter(Level level, std::uint64_t chunk) const;
  void verify_node(Level level, std::uint64_t chunk);
  /// Flush+rekey the MEE cache every cache_policy.rekey_period walks.
  void maybe_rekey();
  Cycles walk_latency(std::uint32_t nodes_fetched);
  /// Queueing delay for a request arriving at `now`; advances busy_until_.
  Cycles occupy_engine(Cycles now, std::uint32_t nodes_fetched);

  const mem::AddressMap& map_;
  mem::PhysicalMemory& memory_;
  MeeConfig config_;
  TreeGeometry geometry_;
  cache::SetAssocCache cache_;
  crypto::LineCipher cipher_;
  std::unique_ptr<crypto::MacScheme> mac_;
  std::vector<std::uint64_t> root_counters_;
  Rng rng_;
  Cycles busy_until_ = 0;
  std::uint64_t walks_since_rekey_ = 0;

  obs::Hub* hub_ = nullptr;
  /// Fallback registry when no hub is attached, so every counter is always
  /// bound and stats() never loses events (the dedup that retired the old
  /// parallel MeeStats bookkeeping depends on this).
  std::unique_ptr<obs::Registry> local_registry_;
  /// Hub registry when attached, else *local_registry_.
  obs::Registry* registry_ = nullptr;
  obs::Counter read_walks_;
  obs::Counter write_walks_;
  obs::Counter nodes_fetched_;
  obs::Counter mac_node_verifies_;
  obs::Counter mac_tag_verifies_;
  obs::Counter versions_class_hits_;
  obs::Counter versions_class_misses_;
  obs::Counter tag_hits_;
  obs::Counter tag_misses_;
  obs::Counter tampers_;
  obs::Counter wait_cycles_;
  obs::Counter rekeys_;
  std::array<obs::Counter, 5> stop_counters_;  ///< indexed by StopLevel
  /// Per-core stop distribution, grown lazily (the engine does not know the
  /// core count). Lets an experiment separate its own walks from co-tenant
  /// noise — mee.core<k>.stop.<level>.
  std::vector<std::array<obs::Counter, 5>> per_core_stops_;
};

}  // namespace meecc::mee
