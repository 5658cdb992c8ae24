#include "cache/set_assoc_cache.h"

#include <algorithm>
#include <array>
#include <bit>

#include "cache/tag_probe.h"
#include "common/bytes.h"
#include "common/check.h"

namespace meecc::cache {

SetAssocCache::SetAssocCache(const Geometry& geometry,
                             const PolicyConfig& config, Rng rng)
    : geometry_(geometry) {
  geometry_.validate();
  indexing_ = make_indexing_policy(config, geometry_);
  fill_ = make_fill_policy(config, geometry_);
  const auto replacement = replacement_from_name(config.replacement);
  const auto sets = geometry_.sets();
  tags_.assign(sets * geometry_.ways, kInvalidLine);
  valid_.assign(sets, 0);
  set_evictions_.assign(sets, 0);
  set_stamp_.assign(sets, 0);
  ways_mask_ = geometry_.ways >= 64 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << geometry_.ways) - 1;
  flat_plru_ = replacement == ReplacementKind::kTreePlru;
  if (flat_plru_) {
    MEECC_CHECK(std::has_single_bit(geometry_.ways));
    plru_depth_ = static_cast<std::uint32_t>(std::countr_zero(geometry_.ways));
    plru_.assign(sets, 0);
    build_plru_masks();
  } else {
    policy_.reserve(sets);
  }
  // Fork order is load-bearing: one fork per set first (exactly the legacy
  // stream), then the leftover parent state seeds the cache-level rng.
  // Tree-PLRU never consumes its fork, but the forks must still be drawn so
  // the parent stream stays byte-identical to the policy-object layout.
  for (std::uint64_t s = 0; s < sets; ++s) {
    Rng set_rng = rng.fork();
    if (!flat_plru_)
      policy_.push_back(
          make_policy(replacement, geometry_.ways, std::move(set_rng)));
  }
  rng_ = std::move(rng);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(geometry_.line_size)));
  fill_passthrough_ = fill_->passthrough();
  refresh_indexing_shortcuts();
}

void SetAssocCache::build_plru_masks() {
  // The tree nodes a touch/invalidate of `way` rewrites — and the values it
  // writes — depend only on the way index, so the root-to-leaf walk runs
  // once per way here instead of once per access. Node i of the implicit
  // tree (children 2i+1 / 2i+2, as in replacement.cc's TreePlruPolicy) is
  // bit i of the set's packed word.
  const std::uint32_t ways = geometry_.ways;
  plru_path_.assign(ways, 0);
  plru_touch_.assign(ways, 0);
  plru_point_.assign(ways, 0);
  for (std::uint32_t way = 0; way < ways; ++way) {
    std::uint32_t node = 0;
    for (std::uint32_t d = plru_depth_; d-- > 0;) {
      const std::uint32_t went_right = (way >> d) & 1;
      plru_path_[way] |= std::uint64_t{1} << node;
      // touch points every node on the path AWAY from the way (bit =
      // 1 - went_right); invalidate points the path AT it (bit = went_right)
      // so the freed slot is refilled first.
      if (!went_right) plru_touch_[way] |= std::uint64_t{1} << node;
      if (went_right) plru_point_[way] |= std::uint64_t{1} << node;
      node = 2 * node + 1 + went_right;
    }
  }
}

void SetAssocCache::policy_touch(std::uint64_t set, std::uint32_t way) {
  if (!flat_plru_) {
    policy_[set]->touch(way);
    return;
  }
  plru_[set] = (plru_[set] & ~plru_path_[way]) | plru_touch_[way];
}

std::uint32_t SetAssocCache::policy_victim(std::uint64_t set) {
  if (!flat_plru_) return policy_[set]->victim();
  const std::uint64_t bits = plru_[set];
  std::uint32_t node = 0;
  std::uint32_t way = 0;
  for (std::uint32_t d = plru_depth_; d-- > 0;) {
    const std::uint32_t go_right =
        static_cast<std::uint32_t>((bits >> node) & 1);
    way = (way << 1) | go_right;
    node = 2 * node + 1 + go_right;
  }
  return way;
}

void SetAssocCache::policy_invalidate(std::uint64_t set, std::uint32_t way) {
  if (!flat_plru_) {
    policy_[set]->invalidate(way);
    return;
  }
  plru_[set] = (plru_[set] & ~plru_path_[way]) | plru_point_[way];
}

void SetAssocCache::refresh_indexing_shortcuts() {
  way_dependent_ = indexing_->way_dependent();
  const auto mask = indexing_->modulo_mask();
  direct_modulo_ = mask.has_value();
  direct_mask_ = mask.value_or(0);
}

SetAssocCache::SetAssocCache(const Geometry& geometry,
                             ReplacementKind replacement, Rng rng)
    : SetAssocCache(
          geometry,
          PolicyConfig{.replacement = std::string(to_string(replacement))},
          std::move(rng)) {}

std::uint64_t& SetAssocCache::tag_at(std::uint64_t set, std::uint32_t way) {
  return tags_[set * geometry_.ways + way];
}

std::uint64_t SetAssocCache::tag_at(std::uint64_t set,
                                    std::uint32_t way) const {
  return tags_[set * geometry_.ways + way];
}

std::optional<SetAssocCache::Slot> SetAssocCache::find_slot(
    std::uint64_t line) const {
  if (!way_dependent_) {
    // Way-independent indexing probes a single contiguous row of the tag
    // plane in one data-parallel compare. At most one way can match
    // (residents are unique per set), so the mask identifies the hit way
    // directly; invalid slots hold the sentinel and never match.
    const auto set =
        direct_modulo_ ? (line & direct_mask_) : indexing_->set_of(line, 0);
    const std::uint64_t match = detail::tag_probe(
        tags_.data() + set * geometry_.ways, geometry_.ways, line);
    if (match == 0) return std::nullopt;
    return Slot{set, static_cast<std::uint32_t>(std::countr_zero(match))};
  }
  // Skewed indexing: each way indexes its own set, so the candidates are
  // strided across the tag plane and the probe stays scalar.
  for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
    const auto set = indexing_->set_of(line, w);
    if (tag_at(set, w) == line) return Slot{set, w};
  }
  return std::nullopt;
}

bool SetAssocCache::contains(PhysAddr addr) const {
  return find_slot(line_index_of(addr)).has_value();
}

std::optional<SetAssocCache::Slot> SetAssocCache::peek(PhysAddr addr) const {
  return find_slot(line_index_of(addr));
}

bool SetAssocCache::lookup(PhysAddr addr) {
  const auto slot = find_slot(line_index_of(addr));
  if (!slot) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  policy_touch(slot->set, slot->way);
  mark_dirty(slot->set);
  return true;
}

void SetAssocCache::hit_at(Slot slot, CoreId requester) {
  ++stats_.hits;
  policy_touch(slot.set, slot.way);
  mark_dirty(slot.set);
  if (sharers_)
    sharers_[slot.set * geometry_.ways + slot.way] |=
        static_cast<std::uint8_t>(1u << requester.value);
}

void SetAssocCache::track_sharers() {
  sharers_ = std::make_unique_for_overwrite<std::uint8_t[]>(tags_.size());
  // Lines already resident may sit in any core's private caches.
  for (std::uint64_t s = 0; s < valid_.size(); ++s)
    for (std::uint64_t occupied = valid_[s]; occupied != 0;
         occupied &= occupied - 1)
      sharers_[s * geometry_.ways + std::countr_zero(occupied)] = 0xFF;
}

SetAssocCache::Slot SetAssocCache::pick_victim(std::uint64_t line,
                                               WayMask allowed) {
  if (way_dependent_) {
    // Skewed indexing: candidate victims live in different sets per way, so
    // no single per-set replacement state spans them. Prefer an invalid
    // allowed slot, else evict a uniformly random allowed way — the standard
    // choice for skewed caches.
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
      if (!(allowed & (WayMask{1} << w))) continue;
      const auto set = indexing_->set_of(line, w);
      if (!(valid_[set] & (std::uint64_t{1} << w))) return Slot{set, w};
    }
    std::array<std::uint32_t, 64> candidates{};
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < geometry_.ways && n < candidates.size(); ++w)
      if (allowed & (WayMask{1} << w)) candidates[n++] = w;
    const auto w = candidates[rng_.next_below(n)];
    return Slot{indexing_->set_of(line, w), w};
  }

  const auto set =
      direct_modulo_ ? (line & direct_mask_) : indexing_->set_of(line, 0);

  // Prefer an invalid allowed way: lowest set bit of the free mask matches
  // the old ascending-way scan exactly.
  const std::uint64_t free_allowed = ~valid_[set] & allowed & ways_mask_;
  if (free_allowed)
    return Slot{set, static_cast<std::uint32_t>(std::countr_zero(free_allowed))};

  // Ask the policy, skipping disallowed ways by re-touching them so the
  // policy walks elsewhere. Bounded retries keep this terminating even for
  // degenerate masks; fall back to the lowest allowed way.
  std::optional<std::uint32_t> chosen;
  for (int attempt = 0; attempt < 32 && !chosen; ++attempt) {
    const auto v = policy_victim(set);
    if (allowed & (WayMask{1} << v)) {
      chosen = v;
    } else {
      policy_touch(set, v);
    }
  }
  if (!chosen) {
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
      if (allowed & (WayMask{1} << w)) {
        chosen = w;
        break;
      }
    }
  }
  return Slot{set, *chosen};
}

std::optional<PhysAddr> SetAssocCache::fill(PhysAddr addr, WayMask allowed,
                                            CoreId requester) {
  return fill_impl(addr, allowed, requester, /*check_resident=*/true, nullptr);
}

std::optional<PhysAddr> SetAssocCache::fill_after_miss(
    PhysAddr addr, WayMask allowed, CoreId requester,
    std::uint8_t* evicted_sharers) {
  return fill_impl(addr, allowed, requester, /*check_resident=*/false,
                   evicted_sharers);
}

std::optional<PhysAddr> SetAssocCache::fill_impl(
    PhysAddr addr, WayMask allowed, CoreId requester, bool check_resident,
    std::uint8_t* evicted_sharers) {
  if (!fill_passthrough_) allowed &= fill_->allowed_ways(requester);
  MEECC_CHECK_MSG(allowed != 0, "fill with empty way mask");
  const auto line = line_index_of(addr);

  if (check_resident) {
    if (const auto slot = find_slot(line)) {
      policy_touch(slot->set, slot->way);  // already resident: refresh
      mark_dirty(slot->set);
      if (sharers_)
        sharers_[slot->set * geometry_.ways + slot->way] |=
            static_cast<std::uint8_t>(1u << requester.value);
      return std::nullopt;
    }
  }

  // A stochastic fill policy may decline the miss: nothing installed,
  // nothing evicted. Deterministic policies never consume rng_ here.
  if (!fill_passthrough_ && !fill_->admits(requester, rng_))
    return std::nullopt;

  const auto victim = pick_victim(line, allowed);
  auto& victim_tag = tag_at(victim.set, victim.way);
  const std::uint64_t way_bit = std::uint64_t{1} << victim.way;
  std::optional<PhysAddr> evicted;
  if (valid_[victim.set] & way_bit) {
    // Exactly one eviction per displaced VALID line: a slot freed by
    // invalidate() (or picked while still empty) must not count.
    ++stats_.evictions;
    ++set_evictions_[victim.set];
    evicted = PhysAddr{victim_tag * geometry_.line_size};
  }
  if (sharers_) {
    std::uint8_t& sharers = sharers_[victim.set * geometry_.ways + victim.way];
    if (evicted && evicted_sharers != nullptr) *evicted_sharers = sharers;
    sharers = static_cast<std::uint8_t>(1u << requester.value);
  }
  victim_tag = line;
  valid_[victim.set] |= way_bit;
  policy_touch(victim.set, victim.way);
  mark_dirty(victim.set);
  return evicted;
}

bool SetAssocCache::access(PhysAddr addr, WayMask allowed, CoreId requester) {
  if (lookup(addr)) return true;
  fill(addr, allowed, requester);
  return false;
}

bool SetAssocCache::invalidate(PhysAddr addr) {
  const auto slot = find_slot(line_index_of(addr));
  if (!slot) return false;
  invalidate_at(*slot);
  return true;
}

void SetAssocCache::invalidate_at(Slot slot) {
  tag_at(slot.set, slot.way) = kInvalidLine;
  valid_[slot.set] &= ~(std::uint64_t{1} << slot.way);
  policy_invalidate(slot.set, slot.way);
  mark_dirty(slot.set);
  ++stats_.invalidations;
}

void SetAssocCache::flush_all() {
  // The meta plane makes this O(occupied lines): a cold set is one load
  // and a skip, which matters because clflush-heavy trials re-flush whole
  // hierarchies between runs.
  const auto sets = geometry_.sets();
  for (std::uint64_t s = 0; s < sets; ++s) {
    std::uint64_t occupied = valid_[s];
    if (!occupied) continue;
    mark_dirty(s);
    std::uint64_t* row = tags_.data() + s * geometry_.ways;
    while (occupied) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(occupied));
      occupied &= occupied - 1;
      row[w] = kInvalidLine;
      policy_invalidate(s, w);
      ++stats_.invalidations;
    }
    valid_[s] = 0;
  }
}

void SetAssocCache::rekey() {
  flush_all();
  indexing_->rekey(rng_.next_u64());
  refresh_indexing_shortcuts();
}

void SetAssocCache::reset_stats() {
  stats_ = CacheStats{};
  // The per-set tallies feed the detector and must stay consistent with
  // stats_.evictions (property_test asserts the sum); resetting one without
  // the other let them drift.
  for (std::uint64_t s = 0; s < set_evictions_.size(); ++s) {
    if (set_evictions_[s] == 0) continue;
    set_evictions_[s] = 0;
    mark_dirty(s);
  }
}

CacheImagePtr SetAssocCache::capture() const {
  auto image = std::make_shared<CacheImage>();
  const auto sets = geometry_.sets();
  for (std::uint64_t s = 0; s < sets; ++s) {
    const std::uint64_t plru = flat_plru_ ? plru_[s] : 0;
    // Per-set policy objects cannot be compared with a pristine one, so
    // those caches list every set.
    if (flat_plru_ && (valid_[s] | plru | set_evictions_[s]) == 0) continue;
    image->rows.push_back({.set = static_cast<std::uint32_t>(s),
                           .tag_offset =
                               static_cast<std::uint32_t>(image->tags.size()),
                           .valid = valid_[s],
                           .plru = plru,
                           .evictions = set_evictions_[s]});
    for (std::uint64_t occupied = valid_[s]; occupied != 0;
         occupied &= occupied - 1)
      image->tags.push_back(
          tag_at(s, static_cast<std::uint32_t>(std::countr_zero(occupied))));
  }
  for (const auto& policy : policy_) image->policies.push_back(policy->clone());
  image->key = indexing_->current_key();
  image->stats = stats_;
  image->rng = rng_;
  return image;
}

void SetAssocCache::clear_row(std::uint64_t set) {
  // Invalid ways already hold the sentinel (tags mirror valid_).
  std::uint64_t* row = tags_.data() + set * geometry_.ways;
  for (std::uint64_t occupied = valid_[set]; occupied != 0;
       occupied &= occupied - 1)
    row[std::countr_zero(occupied)] = kInvalidLine;
  valid_[set] = 0;
  if (flat_plru_) plru_[set] = 0;
  set_evictions_[set] = 0;
}

void SetAssocCache::write_row(const CacheImage& image, std::size_t index) {
  const CacheImage::Row& row = image.rows[index];
  clear_row(row.set);
  std::uint64_t* tags = tags_.data() + std::uint64_t{row.set} * geometry_.ways;
  const std::uint64_t* from = image.tags.data() + row.tag_offset;
  std::uint8_t* sharers =
      sharers_ ? sharers_.get() + std::uint64_t{row.set} * geometry_.ways
               : nullptr;
  for (std::uint64_t occupied = row.valid; occupied != 0;
       occupied &= occupied - 1) {
    const int way = std::countr_zero(occupied);
    tags[way] = *from++;
    // Images carry no core-valid bits: any core may hold a restored line.
    if (sharers) sharers[way] = 0xFF;
  }
  valid_[row.set] = row.valid;
  if (flat_plru_) plru_[row.set] = row.plru;
  set_evictions_[row.set] = row.evictions;
  if (!flat_plru_) policy_[row.set] = image.policies[row.set]->clone();
}

void SetAssocCache::restore(const CacheImagePtr& image) {
  MEECC_CHECK(image != nullptr);
  if (!flat_plru_) {
    // Dense image (every set listed): overwrite everything.
    MEECC_CHECK(image->rows.size() == geometry_.sets());
    for (std::size_t i = 0; i < image->rows.size(); ++i) write_row(*image, i);
  } else if (image == baseline_) {
    // Recycling: only the sets touched since the last restore can differ.
    for (const std::uint32_t s : dirty_sets_) {
      const std::uint32_t row = baseline_row_[s];
      if (row == kNoRow)
        clear_row(s);
      else
        write_row(*image, row);
    }
  } else {
    // Back to pristine — touched sets, then the old image's rows — and
    // the new image's rows on top.
    for (const std::uint32_t s : dirty_sets_) clear_row(s);
    if (baseline_ != nullptr) {
      for (const CacheImage::Row& row : baseline_->rows) {
        clear_row(row.set);
        baseline_row_[row.set] = kNoRow;
      }
    }
    if (baseline_row_.empty()) baseline_row_.assign(geometry_.sets(), kNoRow);
    for (std::size_t i = 0; i < image->rows.size(); ++i) {
      write_row(*image, i);
      baseline_row_[image->rows[i].set] = static_cast<std::uint32_t>(i);
    }
  }
  if (image->key && image->key != indexing_->current_key()) {
    indexing_->rekey(*image->key);
    refresh_indexing_shortcuts();
  }
  stats_ = image->stats;
  rng_ = image->rng;
  baseline_ = image;
  dirty_sets_.clear();
  ++stamp_gen_;
}

void encode_cache_image(io::Writer& w, const CacheImage& image) {
  if (image.key) {
    w.u8(1);
    w.u64(*image.key);
  } else {
    w.u8(0);
  }
  w.u64(image.rows.size());
  for (const CacheImage::Row& row : image.rows) {
    w.u32(row.set);
    w.u64(row.valid);
    w.u64(row.plru);
    w.u64(row.evictions);
    const auto valid_ways = std::popcount(row.valid);
    for (int i = 0; i < valid_ways; ++i) w.u64(image.tags[row.tag_offset + i]);
  }
  for (const auto& policy : image.policies) policy->encode_state(w);
  w.u64(image.stats.hits);
  w.u64(image.stats.misses);
  w.u64(image.stats.evictions);
  w.u64(image.stats.invalidations);
  encode_rng(w, image.rng);
}

CacheImagePtr SetAssocCache::decode_image(io::Reader& r) const {
  auto image = std::make_shared<CacheImage>();
  if (r.u8() != 0) image->key = r.u64();
  const std::uint64_t sets = geometry_.sets();
  const std::uint64_t rows = r.count(4 + 3 * 8);  // set + valid/plru/tally
  if (rows > sets) throw io::DecodeError("cache image has more rows than sets");
  if (!flat_plru_ && rows != sets)
    throw io::DecodeError("cache image must list every set of this policy");
  const std::uint64_t plru_mask =
      flat_plru_ ? (std::uint64_t{1} << (geometry_.ways - 1)) - 1 : 0;
  image->rows.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i) {
    CacheImage::Row row;
    row.set = r.u32();
    row.tag_offset = static_cast<std::uint32_t>(image->tags.size());
    row.valid = r.u64();
    row.plru = r.u64();
    row.evictions = r.u64();
    if (row.set >= sets ||
        (!image->rows.empty() && row.set <= image->rows.back().set))
      throw io::DecodeError("cache image rows out of order or range");
    if ((row.valid & ~ways_mask_) != 0 || (row.plru & ~plru_mask) != 0)
      throw io::DecodeError("cache image row beyond the cache geometry");
    for (auto valid_ways = std::popcount(row.valid); valid_ways > 0;
         --valid_ways)
      image->tags.push_back(r.u64());
    image->rows.push_back(row);
  }
  for (const auto& policy : policy_) {
    image->policies.push_back(policy->clone());
    image->policies.back()->decode_state(r);
  }
  image->stats.hits = r.u64();
  image->stats.misses = r.u64();
  image->stats.evictions = r.u64();
  image->stats.invalidations = r.u64();
  image->rng = decode_rng(r);
  return image;
}

std::uint32_t SetAssocCache::occupancy(std::uint64_t set) const {
  MEECC_CHECK(set < geometry_.sets());
  return static_cast<std::uint32_t>(std::popcount(valid_[set]));
}

std::vector<PhysAddr> SetAssocCache::resident_lines(std::uint64_t set) const {
  MEECC_CHECK(set < geometry_.sets());
  std::vector<PhysAddr> result;
  std::uint64_t occupied = valid_[set];
  while (occupied) {
    const auto w = static_cast<std::uint32_t>(std::countr_zero(occupied));
    occupied &= occupied - 1;
    result.push_back(PhysAddr{tag_at(set, w) * geometry_.line_size});
  }
  return result;
}

}  // namespace meecc::cache
