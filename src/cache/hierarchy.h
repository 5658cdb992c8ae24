// Per-core L1/L2 plus a shared inclusive LLC, Skylake-like.
//
// Inclusivity matters for the attacks: clflush (or an LLC eviction) removes a
// line from every private cache too, guaranteeing the next access reaches
// DRAM — and, for protected addresses, the MEE. The MEE cache is NOT part of
// this hierarchy and is untouched by clflush (paper §3 challenge 1).
//
// Inclusion also makes the hierarchy cheap to probe: the LLC keeps a
// core-valid byte per way (SetAssocCache::track_sharers), so an access
// looks at a core's L1/L2 only when the LLC holds the line and that core
// may hold it too, and clflush / back-invalidation visit only the cores
// whose bit is set. The outcome — hit levels, latencies, every cache's
// state and statistics — is that of probing every level of every core.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/hub.h"

namespace meecc::cache {

enum class HitLevel { kL1, kL2, kLlc, kMemory };

std::string_view to_string(HitLevel level);

struct HierarchyConfig {
  Geometry l1{.size_bytes = 32 * 1024, .ways = 8};
  Geometry l2{.size_bytes = 256 * 1024, .ways = 4};
  Geometry llc{.size_bytes = 8 * 1024 * 1024, .ways = 16};
  /// Full policy stack per level (indexing × replacement × fill);
  /// defaults are the classic modulo / tree-plru / all-ways shape.
  PolicyConfig l1_policy;
  PolicyConfig l2_policy;
  PolicyConfig llc_policy;
  Cycles l1_latency = 4;    ///< hit latency
  Cycles l2_latency = 14;   ///< hit latency (includes L1 miss)
  Cycles llc_latency = 44;  ///< hit latency (includes L1+L2 miss)
  Cycles clflush_latency = 46;
  Cycles mfence_latency = 24;
};

struct HierarchyResult {
  HitLevel level = HitLevel::kMemory;
  Cycles lookup_latency = 0;  ///< excludes DRAM/MEE time on kMemory
};

class Hierarchy {
 public:
  /// One core-valid bit per core in a byte.
  static constexpr unsigned kMaxCores = 8;

  /// `hub` (optional, borrowed) receives per-level hit/miss/eviction
  /// counters under cache.l1 / cache.l2 / cache.llc and eviction trace
  /// events; it must outlive the hierarchy. At most kMaxCores cores
  /// (one core-valid bit each), and the LLC fill policy must admit every
  /// miss, or the LLC would stop covering the private caches.
  Hierarchy(const HierarchyConfig& config, unsigned core_count, Rng rng,
            obs::Hub* hub = nullptr);

  /// Performs one data access from `core`, filling all levels on miss
  /// (inclusive fill). LLC evictions back-invalidate every private cache.
  /// `now` only timestamps trace events; it does not affect behaviour.
  HierarchyResult access(CoreId core, PhysAddr addr, Cycles now = 0);

  /// clflush semantics: removes the line from LLC and all private caches.
  /// Returns the modelled instruction latency.
  Cycles clflush(PhysAddr addr);

  /// True if the line is resident anywhere in the hierarchy.
  bool resident(PhysAddr addr) const;

  const HierarchyConfig& config() const { return config_; }
  unsigned core_count() const { return static_cast<unsigned>(l1_.size()); }

  const SetAssocCache& l1(CoreId core) const { return *l1_.at(core.value); }
  const SetAssocCache& l2(CoreId core) const { return *l2_.at(core.value); }
  const SetAssocCache& llc() const { return *llc_; }

  void flush_all();

  /// Cache-array state for snapshot/fork: one sparse image per cache
  /// (cache/set_assoc_cache.h). Counter handles are NOT part of the state
  /// — import keeps this hierarchy's own bindings.
  struct State {
    std::vector<CacheImagePtr> l1;
    std::vector<CacheImagePtr> l2;
    CacheImagePtr llc;
  };
  State export_state() const;

  /// Overwrites the live cache arrays with `state`. Each cache rewinds only
  /// what changed since its last import when `state` is the one it last
  /// imported — the fork-recycling hot path (DESIGN.md §6).
  void import_state(const State& state);

 private:
  /// Invalidates `addr` in the private caches of the cores in `cores`.
  void back_invalidate(PhysAddr addr, std::uint8_t cores);

  HierarchyConfig config_;
  std::vector<std::unique_ptr<SetAssocCache>> l1_;
  std::vector<std::unique_ptr<SetAssocCache>> l2_;
  std::unique_ptr<SetAssocCache> llc_;
  std::uint8_t all_cores_ = 0;  ///< one bit per core

  obs::Hub* hub_ = nullptr;
  struct LevelCounters {
    obs::Counter hits;
    obs::Counter misses;
  };
  LevelCounters l1_counters_;
  LevelCounters l2_counters_;
  LevelCounters llc_counters_;
  obs::Counter llc_evictions_;
  obs::Counter clflushes_;
};

}  // namespace meecc::cache
