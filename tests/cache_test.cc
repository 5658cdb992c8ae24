#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/geometry.h"
#include "cache/hierarchy.h"
#include "cache/replacement.h"
#include "cache/set_assoc_cache.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"

namespace meecc::cache {
namespace {

TEST(Geometry, MeeCacheIsPaperConfiguration) {
  const Geometry g = mee_cache_geometry();
  g.validate();
  EXPECT_EQ(g.size_bytes, 64u * 1024);
  EXPECT_EQ(g.ways, 8u);
  EXPECT_EQ(g.sets(), 128u);
  EXPECT_EQ(g.lines(), 1024u);
}

TEST(Geometry, IndexAndTagRoundTrip) {
  const Geometry g = mee_cache_geometry();
  for (std::uint64_t raw : {0ull, 64ull, 128ull * 64, 0x12345ull * 64}) {
    const PhysAddr a{raw};
    const auto set = g.set_index(a);
    const auto tag = g.tag(a);
    EXPECT_LT(set, g.sets());
    EXPECT_EQ(g.line_address(tag, set).raw, a.line_base().raw);
  }
}

TEST(Geometry, ConsecutiveLinesConsecutiveSets) {
  const Geometry g = mee_cache_geometry();
  EXPECT_EQ(g.set_index(PhysAddr{0}), 0u);
  EXPECT_EQ(g.set_index(PhysAddr{64}), 1u);
  EXPECT_EQ(g.set_index(PhysAddr{127 * 64}), 127u);
  EXPECT_EQ(g.set_index(PhysAddr{128 * 64}), 0u);  // wraps at way span
}

TEST(Geometry, ValidateRejectsBadShapes) {
  EXPECT_THROW((Geometry{.size_bytes = 1000, .ways = 8}).validate(),
               CheckFailure);
  EXPECT_THROW((Geometry{.size_bytes = 64 * 1024, .ways = 0}).validate(),
               CheckFailure);
  // 192 sets is not a power of two.
  EXPECT_THROW((Geometry{.size_bytes = 192 * 64, .ways = 1}).validate(),
               CheckFailure);
}

class ReplacementTest : public ::testing::TestWithParam<ReplacementKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementTest,
                         ::testing::Values(ReplacementKind::kLru,
                                           ReplacementKind::kTreePlru,
                                           ReplacementKind::kNru,
                                           ReplacementKind::kRandom),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param)) ==
                                          "tree-plru"
                                      ? "TreePlru"
                                      : std::string(to_string(param_info.param));
                         });

TEST_P(ReplacementTest, VictimAlwaysInRange) {
  auto policy = make_policy(GetParam(), 8, Rng(1));
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    policy->touch(static_cast<std::uint32_t>(rng.next_below(8)));
    EXPECT_LT(policy->victim(), 8u);
  }
}

TEST(LruPolicy, EvictsLeastRecentlyUsed) {
  auto policy = make_policy(ReplacementKind::kLru, 4, Rng(1));
  for (std::uint32_t w : {0u, 1u, 2u, 3u}) policy->touch(w);
  policy->touch(0);  // order now: 1,2,3,0
  EXPECT_EQ(policy->victim(), 1u);
  policy->touch(1);
  EXPECT_EQ(policy->victim(), 2u);
}

TEST(LruPolicy, InvalidatedWayChosenFirst) {
  auto policy = make_policy(ReplacementKind::kLru, 4, Rng(1));
  for (std::uint32_t w : {0u, 1u, 2u, 3u}) policy->touch(w);
  policy->invalidate(2);
  EXPECT_EQ(policy->victim(), 2u);
}

TEST(TreePlru, NeverEvictsTheJustTouchedWay) {
  auto policy = make_policy(ReplacementKind::kTreePlru, 8, Rng(1));
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    const auto w = static_cast<std::uint32_t>(rng.next_below(8));
    policy->touch(w);
    EXPECT_NE(policy->victim(), w);
  }
}

TEST(TreePlru, SteadyStateForwardPassDoesNotEvictTheProbedLine) {
  // The property the paper's two-phase eviction exists for (§5.3): once the
  // trojan's 8 lines are resident and the spy's probe line has been
  // re-inserted, a single FORWARD access pass over the trojan's set fails to
  // evict the spy's line (tree-PLRU redirects the one refill elsewhere); the
  // forward+backward double pass always succeeds.
  Rng rng(1);
  const Geometry g{.size_bytes = 8 * 64 * 8, .ways = 8};
  int fwd_survivals = 0, fwd_bwd_survivals = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    SetAssocCache cache(g, ReplacementKind::kTreePlru, rng.fork());
    for (int i = 0; i < 8; ++i) cache.access(g.line_address(200 + i, 3));
    for (int round = 0; round < 3; ++round) {
      const PhysAddr spy_line = g.line_address(100, 3);
      cache.access(spy_line);  // spy probe re-primes its line
      for (int i = 0; i < 8; ++i) cache.access(g.line_address(200 + i, 3));
      if (round == 2 && cache.contains(spy_line)) ++fwd_survivals;
      for (int i = 7; i >= 0; --i) cache.access(g.line_address(200 + i, 3));
      if (round == 2 && cache.contains(spy_line)) ++fwd_bwd_survivals;
    }
  }
  EXPECT_GT(fwd_survivals, trials / 2);  // forward-only: eviction unreliable
  EXPECT_EQ(fwd_bwd_survivals, 0);       // two-phase: eviction guaranteed
}

TEST(Nru, PrefersUnreferencedWays) {
  auto policy = make_policy(ReplacementKind::kNru, 4, Rng(1));
  policy->touch(0);
  policy->touch(1);
  for (int i = 0; i < 50; ++i) {
    const auto v = policy->victim();
    EXPECT_TRUE(v == 2 || v == 3);
  }
}

Geometry tiny_geometry() {
  return Geometry{.size_bytes = 4 * 64 * 4, .ways = 4};  // 4 sets, 4 ways
}

PhysAddr addr_for(const Geometry& g, std::uint64_t set, std::uint64_t tag) {
  return g.line_address(tag, set);
}

TEST(SetAssocCache, HitAfterFill) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const PhysAddr a = addr_for(cache.geometry(), 2, 5);
  EXPECT_FALSE(cache.lookup(a));
  cache.fill(a);
  EXPECT_TRUE(cache.contains(a));
  EXPECT_TRUE(cache.lookup(a));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SetAssocCache, FillBeyondWaysEvicts) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  for (std::uint64_t t = 0; t < 4; ++t)
    EXPECT_EQ(cache.fill(addr_for(g, 1, t)), std::nullopt);
  EXPECT_EQ(cache.occupancy(1), 4u);
  const auto evicted = cache.fill(addr_for(g, 1, 99));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->raw, addr_for(g, 1, 0).raw);  // LRU victim
  EXPECT_EQ(cache.occupancy(1), 4u);
  EXPECT_FALSE(cache.contains(addr_for(g, 1, 0)));
}

TEST(SetAssocCache, SetsAreIndependent) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  for (std::uint64_t t = 0; t < 10; ++t) cache.fill(addr_for(g, 0, t));
  EXPECT_EQ(cache.occupancy(0), 4u);
  EXPECT_EQ(cache.occupancy(1), 0u);
}

TEST(SetAssocCache, RefillResidentLineIsRecencyUpdateOnly) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  for (std::uint64_t t = 0; t < 4; ++t) cache.fill(addr_for(g, 1, t));
  EXPECT_EQ(cache.fill(addr_for(g, 1, 0)), std::nullopt);  // re-fill tag 0
  const auto evicted = cache.fill(addr_for(g, 1, 50));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->raw, addr_for(g, 1, 1).raw);  // 0 was refreshed, 1 is LRU
}

TEST(SetAssocCache, InvalidateRemovesAndCounts) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const PhysAddr a = addr_for(cache.geometry(), 3, 2);
  cache.fill(a);
  EXPECT_TRUE(cache.invalidate(a));
  EXPECT_FALSE(cache.contains(a));
  EXPECT_FALSE(cache.invalidate(a));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(SetAssocCache, WayMaskConfinesVictims) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  // Fill the whole set via the low half only: ways 0-1.
  const WayMask low = 0b0011;
  for (std::uint64_t t = 0; t < 8; ++t) cache.fill(addr_for(g, 0, t), low);
  EXPECT_EQ(cache.occupancy(0), 2u);  // never claimed ways 2-3
  // High-half fills must not displace low-half residents.
  const auto resident_before = cache.resident_lines(0);
  cache.fill(addr_for(g, 0, 100), 0b1100);
  cache.fill(addr_for(g, 0, 101), 0b1100);
  cache.fill(addr_for(g, 0, 102), 0b1100);
  for (const PhysAddr line : resident_before)
    EXPECT_TRUE(cache.contains(line));
  EXPECT_EQ(cache.occupancy(0), 4u);
}

// Regression: a fill that lands in a slot freed by invalidate() used to be
// at risk of double-counting. Exactly one eviction per displaced VALID line;
// reusing an empty slot counts nothing.
TEST(SetAssocCache, InvalidateThenFillCountsNoEviction) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  for (std::uint64_t t = 0; t < 4; ++t) cache.fill(addr_for(g, 1, t));
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.invalidate(addr_for(g, 1, 2));
  const auto evicted = cache.fill(addr_for(g, 1, 50));
  EXPECT_EQ(evicted, std::nullopt);  // took the freed slot, displaced nobody
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.evictions_per_set()[1], 0u);

  // The set is full again: the next fill is a genuine conflict eviction.
  ASSERT_TRUE(cache.fill(addr_for(g, 1, 51)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.evictions_per_set()[1], 1u);
}

// The per-set tallies and the aggregate must agree for ANY interleaving of
// fills and invalidations (the detector consumes the per-set signature).
TEST(SetAssocCache, PerSetEvictionsSumToAggregate) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kTreePlru, Rng(9));
  const auto& g = cache.geometry();
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto set = rng.next_below(g.sets());
    const auto tag = rng.next_below(12);
    if (rng.chance(0.2))
      cache.invalidate(addr_for(g, set, tag));
    else
      cache.fill(addr_for(g, set, tag));
  }
  std::uint64_t per_set_sum = 0;
  for (const auto n : cache.evictions_per_set()) per_set_sum += n;
  EXPECT_EQ(per_set_sum, cache.stats().evictions);
  EXPECT_GT(per_set_sum, 0u);
}

// Regression for the audited bug: reset_stats() cleared the aggregate but
// left the per-set tallies, letting the two views drift apart.
TEST(SetAssocCache, ResetStatsClearsPerSetEvictions) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  for (std::uint64_t t = 0; t < 9; ++t) cache.fill(addr_for(g, 0, t));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.evictions_per_set()[0], 0u);

  cache.reset_stats();
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
  for (const auto n : cache.evictions_per_set()) EXPECT_EQ(n, 0u);
}

TEST(SetAssocCache, FlushAllEmptiesEverySet) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kTreePlru, Rng(1));
  const auto& g = cache.geometry();
  for (std::uint64_t s = 0; s < g.sets(); ++s)
    for (std::uint64_t t = 0; t < 4; ++t) cache.fill(addr_for(g, s, t));
  cache.flush_all();
  for (std::uint64_t s = 0; s < g.sets(); ++s) EXPECT_EQ(cache.occupancy(s), 0u);
}

TEST(SetAssocCache, ResidentLinesReportsFilledAddresses) {
  SetAssocCache cache(tiny_geometry(), ReplacementKind::kLru, Rng(1));
  const auto& g = cache.geometry();
  cache.fill(addr_for(g, 2, 7));
  cache.fill(addr_for(g, 2, 9));
  const auto lines = cache.resident_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].raw, addr_for(g, 2, 7).raw);
  EXPECT_EQ(lines[1].raw, addr_for(g, 2, 9).raw);
}

HierarchyConfig small_hierarchy() {
  HierarchyConfig config;
  config.l1 = Geometry{.size_bytes = 4 * 1024, .ways = 4};
  config.l2 = Geometry{.size_bytes = 16 * 1024, .ways = 4};
  config.llc = Geometry{.size_bytes = 64 * 1024, .ways = 8};
  return config;
}

TEST(Hierarchy, MissThenProgressivelyCloserHits) {
  Hierarchy h(small_hierarchy(), 2, Rng(1));
  const PhysAddr a{0x12340};
  const CoreId core{0};
  EXPECT_EQ(h.access(core, a).level, HitLevel::kMemory);
  EXPECT_EQ(h.access(core, a).level, HitLevel::kL1);
  EXPECT_EQ(h.access(core, a).lookup_latency, small_hierarchy().l1_latency);
}

TEST(Hierarchy, CrossCoreHitsInSharedLlc) {
  Hierarchy h(small_hierarchy(), 2, Rng(1));
  const PhysAddr a{0x40};
  h.access(CoreId{0}, a);
  EXPECT_EQ(h.access(CoreId{1}, a).level, HitLevel::kLlc);
  EXPECT_EQ(h.access(CoreId{1}, a).level, HitLevel::kL1);
}

TEST(Hierarchy, ClflushRemovesFromAllLevelsAllCores) {
  Hierarchy h(small_hierarchy(), 2, Rng(1));
  const PhysAddr a{0x80};
  h.access(CoreId{0}, a);
  h.access(CoreId{1}, a);
  EXPECT_TRUE(h.resident(a));
  h.clflush(a);
  EXPECT_FALSE(h.resident(a));
  EXPECT_EQ(h.access(CoreId{0}, a).level, HitLevel::kMemory);
}

TEST(Hierarchy, InclusiveBackInvalidation) {
  Hierarchy h(small_hierarchy(), 1, Rng(1));
  const auto llc = small_hierarchy().llc;
  const CoreId core{0};
  // Pin one line, then thrash its LLC set until it is evicted from the LLC;
  // inclusivity demands it also left the L1/L2.
  const PhysAddr victim = llc.line_address(1, 5);
  h.access(core, victim);
  for (std::uint64_t t = 2; t < 2 + 4 * llc.ways; ++t)
    h.access(core, llc.line_address(t, 5));
  EXPECT_FALSE(h.llc().contains(victim));
  EXPECT_FALSE(h.l1(core).contains(victim));
  EXPECT_FALSE(h.l2(core).contains(victim));
}

TEST(Hierarchy, FlushAllResets) {
  Hierarchy h(small_hierarchy(), 2, Rng(1));
  h.access(CoreId{0}, PhysAddr{0x100});
  h.flush_all();
  EXPECT_FALSE(h.resident(PhysAddr{0x100}));
}

TEST(Hierarchy, RejectsShapesTheCoreValidBitsCannotCover) {
  EXPECT_THROW(Hierarchy(small_hierarchy(), 9, Rng(1)), CheckFailure);
  HierarchyConfig random_fill = small_hierarchy();
  random_fill.llc_policy.fill = "random";
  EXPECT_THROW(Hierarchy(random_fill, 2, Rng(1)), CheckFailure);
  HierarchyConfig partitioned = small_hierarchy();
  partitioned.llc_policy.fill = "partition";
  EXPECT_NO_THROW(Hierarchy(partitioned, 2, Rng(1)));
}

/// The hierarchy as it reads without core-valid bits: every access probes
/// L1, L2 and the LLC in turn, and clflush / back-invalidation probe the
/// private caches of every core. Built from the same RNG forks in the same
/// order as Hierarchy, so both start identical.
class ProbeEverythingHierarchy {
 public:
  ProbeEverythingHierarchy(const HierarchyConfig& config, unsigned cores,
                           Rng rng)
      : config_(config) {
    for (unsigned c = 0; c < cores; ++c) {
      l1_.emplace_back(config.l1, config.l1_policy, rng.fork());
      l2_.emplace_back(config.l2, config.l2_policy, rng.fork());
    }
    llc_.emplace(config.llc, config.llc_policy, rng.fork());
  }

  HierarchyResult access(CoreId core, PhysAddr addr) {
    const PhysAddr line = addr.line_base();
    auto& l1 = l1_[core.value];
    auto& l2 = l2_[core.value];
    if (l1.lookup(line)) return {HitLevel::kL1, config_.l1_latency};
    if (l2.lookup(line)) {
      l1.fill(line);
      return {HitLevel::kL2, config_.l2_latency};
    }
    if (llc_->lookup(line)) {
      l2.fill(line);
      l1.fill(line);
      return {HitLevel::kLlc, config_.llc_latency};
    }
    if (const auto evicted = llc_->fill(line, kAllWays, core))
      back_invalidate(*evicted);
    l2.fill(line);
    l1.fill(line);
    return {HitLevel::kMemory, config_.llc_latency};
  }

  Cycles clflush(PhysAddr addr) {
    llc_->invalidate(addr.line_base());
    back_invalidate(addr.line_base());
    return config_.clflush_latency;
  }

  void import_state(const Hierarchy::State& state) {
    for (std::size_t c = 0; c < l1_.size(); ++c) {
      l1_[c].restore(state.l1[c]);
      l2_[c].restore(state.l2[c]);
    }
    llc_->restore(state.llc);
  }

  const SetAssocCache& l1(std::size_t c) const { return l1_[c]; }
  const SetAssocCache& l2(std::size_t c) const { return l2_[c]; }
  const SetAssocCache& llc() const { return *llc_; }

 private:
  void back_invalidate(PhysAddr line) {
    for (std::size_t c = 0; c < l1_.size(); ++c) {
      l1_[c].invalidate(line);
      l2_[c].invalidate(line);
    }
  }

  HierarchyConfig config_;
  std::vector<SetAssocCache> l1_;
  std::vector<SetAssocCache> l2_;
  std::optional<SetAssocCache> llc_;
};

std::string image_bytes(const SetAssocCache& cache) {
  io::Writer w;
  encode_cache_image(w, *cache.capture());
  return w.take();
}

void expect_same_caches(const SetAssocCache& got, const SetAssocCache& want,
                        const std::string& what) {
  EXPECT_EQ(image_bytes(got), image_bytes(want)) << what;
  EXPECT_EQ(got.stats().hits, want.stats().hits) << what;
  EXPECT_EQ(got.stats().misses, want.stats().misses) << what;
  EXPECT_EQ(got.stats().evictions, want.stats().evictions) << what;
  EXPECT_EQ(got.stats().invalidations, want.stats().invalidations) << what;
}

class HierarchyReference
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

// Random 4-core reads, writes and clflushes over a working set several
// times the LLC, so LLC evictions back-invalidate lines other cores hold.
// The core-valid shortcuts must leave every observable exactly as the
// probe-everything hierarchy has it, also across a mid-run restore.
TEST_P(HierarchyReference, MatchesProbingEveryCache) {
  HierarchyConfig config;
  config.l1 = Geometry{.size_bytes = 1024, .ways = 2};
  config.l2 = Geometry{.size_bytes = 2 * 1024, .ways = 4};
  config.llc = Geometry{.size_bytes = 4 * 1024, .ways = 8};
  config.llc_policy.indexing = GetParam().first;
  config.llc_policy.replacement = GetParam().second;
  constexpr unsigned kCores = 4;
  Hierarchy h(config, kCores, Rng(17));
  ProbeEverythingHierarchy ref(config, kCores, Rng(17));
  Rng ops(99);
  const auto compare_all = [&](const std::string& when) {
    for (unsigned c = 0; c < kCores; ++c) {
      expect_same_caches(h.l1(CoreId{c}), ref.l1(c),
                         when + " L1 core " + std::to_string(c));
      expect_same_caches(h.l2(CoreId{c}), ref.l2(c),
                         when + " L2 core " + std::to_string(c));
    }
    expect_same_caches(h.llc(), ref.llc(), when + " LLC");
  };
  const auto run = [&](int count, const std::string& phase) {
    for (int i = 0; i < count; ++i) {
      const CoreId core{static_cast<std::uint32_t>(ops.next_below(kCores))};
      // 256 lines (16 KB) plus a byte offset within the line.
      const PhysAddr addr{ops.next_below(256) * 64 + ops.next_below(64)};
      const auto op = ops.next_below(10);
      if (op < 3) {
        ASSERT_EQ(h.clflush(addr), ref.clflush(addr)) << phase << " op " << i;
      } else {
        // Reads and writes (3..9) take the same path through the hierarchy.
        const HierarchyResult got = h.access(core, addr);
        const HierarchyResult want = ref.access(core, addr);
        ASSERT_EQ(got.level, want.level) << phase << " op " << i;
        ASSERT_EQ(got.lookup_latency, want.lookup_latency)
            << phase << " op " << i;
      }
    }
  };
  run(3000, "first run");
  compare_all("after the first run");
  // The mix reaches every path: private hits and LLC evictions that
  // back-invalidate.
  EXPECT_GT(h.l1(CoreId{0}).stats().hits, 0u);
  EXPECT_GT(h.l2(CoreId{0}).stats().hits, 0u);
  EXPECT_GT(h.llc().stats().hits, 0u);
  EXPECT_GT(h.llc().stats().evictions, 0u);
  const Hierarchy::State mid = h.export_state();
  run(3000, "second run");
  compare_all("after the second run");
  // Back to the midpoint (images carry no core-valid bits) and diverge
  // from it again: the restored bits must still cover every holder.
  h.import_state(mid);
  ref.import_state(mid);
  compare_all("after the restore");
  run(3000, "after the restore");
  compare_all("at the end");
  // And once more onto the same image, the recycling path.
  h.import_state(mid);
  ref.import_state(mid);
  run(2000, "after the second restore");
  compare_all("after the second restore");
}

INSTANTIATE_TEST_SUITE_P(
    LlcPolicies, HierarchyReference,
    ::testing::Values(std::pair{"modulo", "tree-plru"},
                      std::pair{"skewed", "tree-plru"},
                      std::pair{"modulo", "lru"}));

}  // namespace
}  // namespace meecc::cache
