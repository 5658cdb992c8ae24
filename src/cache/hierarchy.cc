#include "cache/hierarchy.h"

#include <bit>

#include "common/check.h"

namespace meecc::cache {

std::string_view to_string(HitLevel level) {
  switch (level) {
    case HitLevel::kL1:
      return "L1";
    case HitLevel::kL2:
      return "L2";
    case HitLevel::kLlc:
      return "LLC";
    case HitLevel::kMemory:
      return "memory";
  }
  return "?";
}

Hierarchy::Hierarchy(const HierarchyConfig& config, unsigned core_count,
                     Rng rng, obs::Hub* hub)
    : config_(config), hub_(hub) {
  MEECC_CHECK(core_count > 0);
  MEECC_CHECK_MSG(core_count <= kMaxCores,
                  "the LLC core-valid bits cover at most "
                      << kMaxCores << " cores, got " << core_count);
  for (unsigned c = 0; c < core_count; ++c) {
    l1_.push_back(std::make_unique<SetAssocCache>(config_.l1,
                                                  config_.l1_policy,
                                                  rng.fork()));
    l2_.push_back(std::make_unique<SetAssocCache>(config_.l2,
                                                  config_.l2_policy,
                                                  rng.fork()));
  }
  llc_ = std::make_unique<SetAssocCache>(config_.llc, config_.llc_policy,
                                         rng.fork());
  MEECC_CHECK_MSG(llc_->fill_policy().admits_every_miss(),
                  "the inclusive LLC needs a fill policy that admits every "
                  "miss, got '"
                      << llc_->fill_policy().name() << "'");
  llc_->track_sharers();
  all_cores_ = static_cast<std::uint8_t>((1u << core_count) - 1);
  if (hub_ != nullptr) {
    auto& registry = hub_->registry();
    l1_counters_ = {registry.counter("cache.l1", "hits"),
                    registry.counter("cache.l1", "misses")};
    l2_counters_ = {registry.counter("cache.l2", "hits"),
                    registry.counter("cache.l2", "misses")};
    llc_counters_ = {registry.counter("cache.llc", "hits"),
                     registry.counter("cache.llc", "misses")};
    llc_evictions_ = registry.counter("cache.llc", "evictions");
    clflushes_ = registry.counter("cache", "clflushes");
  }
}

HierarchyResult Hierarchy::access(CoreId core, PhysAddr addr, Cycles now) {
  MEECC_CHECK(core.value < l1_.size());
  const PhysAddr line = addr.line_base();
  auto& l1 = *l1_[core.value];
  auto& l2 = *l2_[core.value];

  // The side-effect-free LLC peek decides which private probes can hit: by
  // inclusion, none when the LLC misses, and none when this core's
  // core-valid bit is clear. Those probes would only count a miss.
  const auto llc_slot = llc_->peek(line);
  const auto core_bit = static_cast<std::uint8_t>(1u << core.value);
  if (llc_slot && (llc_->sharers(*llc_slot) & core_bit) != 0) {
    if (l1.lookup(line)) {
      l1_counters_.hits.inc();
      return {HitLevel::kL1, config_.l1_latency};
    }
    l1_counters_.misses.inc();

    if (l2.lookup(line)) {
      l2_counters_.hits.inc();
      // Every fill below a missed level uses fill_after_miss: the lookup
      // above just proved the line absent and nothing touched that cache
      // in between, so the residency re-probe inside fill() would be
      // wasted.
      l1.fill_after_miss(line);
      return {HitLevel::kL2, config_.l2_latency};
    }
    l2_counters_.misses.inc();
  } else {
    l1.count_miss();
    l1_counters_.misses.inc();
    l2.count_miss();
    l2_counters_.misses.inc();
  }

  if (llc_slot) {
    // Nothing touched the LLC since the peek, so its slot still holds.
    llc_->hit_at(*llc_slot, core);
    llc_counters_.hits.inc();
    l2.fill_after_miss(line);
    l1.fill_after_miss(line);
    return {HitLevel::kLlc, config_.llc_latency};
  }
  llc_->count_miss();
  llc_counters_.misses.inc();

  // Miss everywhere: fill inclusive, honoring back-invalidation. The LLC
  // fill carries the requesting core so a partitioned fill policy on the
  // shared level can tell tenants apart.
  std::uint8_t victim_sharers = 0;
  if (const auto evicted =
          llc_->fill_after_miss(line, kAllWays, core, &victim_sharers)) {
    llc_evictions_.inc();
    if (hub_ != nullptr && hub_->tracing())
      hub_->trace({.cycle = now,
                   .component = obs::Component::kCache,
                   .core = core.value,
                   .addr = evicted->raw,
                   .kind = "evict",
                   .outcome = "LLC"});
    back_invalidate(*evicted, victim_sharers);
  }
  // Still safe after the LLC fill: back_invalidate only removed the evicted
  // victim, which cannot be `line` (it was absent when the victim was
  // picked), so `line` remains missing from L2/L1 here.
  l2.fill_after_miss(line);
  l1.fill_after_miss(line);
  return {HitLevel::kMemory, config_.llc_latency};
}

Cycles Hierarchy::clflush(PhysAddr addr) {
  const PhysAddr line = addr.line_base();
  clflushes_.inc();
  // A line the LLC does not hold is in no private cache either; probing
  // them all anyway keeps clflush exact even if that ever stopped holding.
  std::uint8_t holders = all_cores_;
  if (const auto slot = llc_->peek(line)) {
    holders = llc_->sharers(*slot);
    llc_->invalidate_at(*slot);
  }
  back_invalidate(line, holders);
  return config_.clflush_latency;
}

bool Hierarchy::resident(PhysAddr addr) const {
  const PhysAddr line = addr.line_base();
  if (llc_->contains(line)) return true;
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    if (l1_[c]->contains(line) || l2_[c]->contains(line)) return true;
  }
  return false;
}

void Hierarchy::back_invalidate(PhysAddr addr, std::uint8_t cores) {
  for (unsigned bits = cores & all_cores_; bits != 0; bits &= bits - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(bits));
    l1_[c]->invalidate(addr);
    l2_[c]->invalidate(addr);
  }
}

void Hierarchy::flush_all() {
  llc_->flush_all();
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    l1_[c]->flush_all();
    l2_[c]->flush_all();
  }
}

Hierarchy::State Hierarchy::export_state() const {
  State state;
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    state.l1.push_back(l1_[c]->capture());
    state.l2.push_back(l2_[c]->capture());
  }
  state.llc = llc_->capture();
  return state;
}

void Hierarchy::import_state(const State& state) {
  MEECC_CHECK(state.l1.size() == l1_.size() && state.l2.size() == l2_.size());
  for (std::size_t c = 0; c < l1_.size(); ++c) {
    l1_[c]->restore(state.l1[c]);
    l2_[c]->restore(state.l2[c]);
  }
  llc_->restore(state.llc);
}

}  // namespace meecc::cache
