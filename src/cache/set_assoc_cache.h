// Generic physically-indexed set-associative cache (state only, no timing —
// latency is the caller's concern so the same structure serves L1/L2/LLC and
// the MEE cache).
//
// The cache composes three orthogonal policies (cache/policy.h):
//   indexing    — how a line index maps to a set (modulo / keyed / skewed)
//   replacement — which resident way a full set gives up (replacement.h)
//   fill        — which ways a requester may claim, and whether the miss is
//                 admitted at all (all / partition / random)
//
// Storage is struct-of-arrays: three contiguous planes indexed by set —
//   tag plane   tags_[set * ways + way], the full line index per way
//               (all-ones sentinel = invalid), probed as one SIMD compare
//               over the set's row (cache/tag_probe.h)
//   meta plane  valid_[set], a bitmask of occupied ways, so free-way scans,
//               occupancy and flush are O(1) bit ops per set
//   PLRU plane  plru_[set], the set's tree-PLRU direction bits packed into
//               one word, so touch/invalidate are two precomputed masks and
//               victim selection walks a register instead of chasing bytes
// plus, on a cache that tracks sharers (the inclusive LLC), a fourth plane
// of one core-valid byte per way (track_sharers()).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/geometry.h"
#include "cache/policy.h"
#include "cache/replacement.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"

namespace meecc::cache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// Snapshot image of a SetAssocCache: only the sets whose rows differ from
/// a freshly built cache (any valid way, a nonzero PLRU word or eviction
/// tally), plus the cache-wide stats, RNG and indexing key. Immutable once
/// captured and shared between snapshot copies. An LLC the covert channel
/// has flushed clean lists a few thousand of its 8192 sets and stores tags
/// only for valid ways, instead of megabytes of planes.
struct CacheImage {
  struct Row {
    std::uint32_t set = 0;
    /// Index in `tags` of this set's first valid way; one entry per set
    /// bit of `valid`, in way order.
    std::uint32_t tag_offset = 0;
    std::uint64_t valid = 0;
    std::uint64_t plru = 0;  ///< packed tree-PLRU word (0 for other policies)
    std::uint64_t evictions = 0;
  };
  std::vector<Row> rows;  ///< ascending set order
  std::vector<std::uint64_t> tags;
  /// Replacement policies other than tree-PLRU keep per-set state outside
  /// the planes; their caches list every set and carry a copy of each
  /// set's policy here.
  std::vector<std::unique_ptr<ReplacementPolicy>> policies;
  std::optional<std::uint64_t> key;
  CacheStats stats;
  Rng rng;
};
using CacheImagePtr = std::shared_ptr<const CacheImage>;

/// Canonical wire encoding of an image (the snapshot format's cache part).
void encode_cache_image(io::Writer& w, const CacheImage& image);

class SetAssocCache {
 public:
  /// Composes the full policy stack named by `config`. The per-set
  /// replacement policies fork from `rng` first (one fork per set, in set
  /// order); the remainder seeds the cache-level rng used by stochastic
  /// policies (random fill admission, skewed victim selection, rekey).
  SetAssocCache(const Geometry& geometry, const PolicyConfig& config, Rng rng);

  /// Classic shape: modulo indexing, all-ways fill, `replacement`.
  SetAssocCache(const Geometry& geometry, ReplacementKind replacement, Rng rng);

  SetAssocCache(const SetAssocCache&) = delete;
  SetAssocCache& operator=(const SetAssocCache&) = delete;
  SetAssocCache(SetAssocCache&&) = default;
  SetAssocCache& operator=(SetAssocCache&&) = default;

  /// Where a resident line sits.
  struct Slot {
    std::uint64_t set = 0;
    std::uint32_t way = 0;
  };

  /// Probe without side effects: is the line resident?
  bool contains(PhysAddr addr) const;

  /// contains() that also says where the line sits.
  std::optional<Slot> peek(PhysAddr addr) const;

  /// The hit half of lookup() for a slot peek() just returned (nothing
  /// touched the cache in between): counts the hit, refreshes replacement
  /// state and, when tracking sharers, adds `requester` to the slot's.
  void hit_at(Slot slot, CoreId requester);

  /// The miss half of lookup() for a line the caller already knows is
  /// absent: counts the miss, nothing else.
  void count_miss() { ++stats_.misses; }

  /// invalidate() of a slot peek() just returned.
  void invalidate_at(Slot slot);

  /// Adds a core-valid plane: one byte per way, bit c set when core c's
  /// private caches may hold the line. Installs set it to the requester,
  /// hit_at() ORs the requester in and restore() sets every bit of the
  /// ways it writes, so it is a superset of the true holders for any
  /// requester below 8. Not part of capture() or the wire format. The
  /// plane is allocated uninitialized, so its pages are only committed for
  /// the sets that are used.
  void track_sharers();

  /// Core-valid bits of a valid slot (track_sharers() caches only).
  std::uint8_t sharers(Slot slot) const {
    return sharers_[slot.set * geometry_.ways + slot.way];
  }

  /// Lookup: on hit updates replacement state and returns true.
  /// Does NOT fill on miss (call fill()).
  bool lookup(PhysAddr addr);

  /// Inserts the line, evicting if needed. Returns the evicted line's base
  /// address, if a valid line was displaced. `allowed` restricts candidate
  /// victim ways and is intersected with the fill policy's mask for
  /// `requester` (the line itself may still hit in a disallowed way). A
  /// stochastic fill policy may decline the miss entirely (no install, no
  /// eviction).
  std::optional<PhysAddr> fill(PhysAddr addr, WayMask allowed = kAllWays,
                               CoreId requester = CoreId{0});

  /// fill() for a line the caller just observed missing (its lookup()
  /// returned false and nothing touched the cache since): skips the
  /// redundant residency probe that fill() runs before picking a victim.
  /// Behavior is otherwise identical to fill().
  /// On a cache that tracks sharers, `evicted_sharers` (if given) receives
  /// the displaced line's core-valid bits.
  std::optional<PhysAddr> fill_after_miss(PhysAddr addr,
                                          WayMask allowed = kAllWays,
                                          CoreId requester = CoreId{0},
                                          std::uint8_t* evicted_sharers =
                                              nullptr);

  /// Convenience: lookup, then fill on miss. Returns true on hit.
  bool access(PhysAddr addr, WayMask allowed = kAllWays,
              CoreId requester = CoreId{0});

  /// Removes the line if present (clflush / back-invalidation).
  bool invalidate(PhysAddr addr);

  void flush_all();

  /// Flush everything and install a fresh indexing key (CEASER-style
  /// rekey): residents mapped under the old key would be unfindable, so
  /// correctness requires the flush. No-op key-wise for keyless indexing.
  void rekey();

  const Geometry& geometry() const { return geometry_; }
  const IndexingPolicy& indexing() const { return *indexing_; }
  const FillPolicy& fill_policy() const { return *fill_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats();

  /// Number of valid lines currently in `set` (for tests / introspection).
  std::uint32_t occupancy(std::uint64_t set) const;

  /// Resident line base addresses in `set`, in way order.
  std::vector<PhysAddr> resident_lines(std::uint64_t set) const;

  /// Cumulative conflict evictions per set — the defender-visible signature
  /// a covert channel cannot avoid concentrating into its contested set
  /// (channel/detector.h).
  const std::vector<std::uint64_t>& evictions_per_set() const {
    return set_evictions_;
  }

  /// Captures the cache's mutable state as a sparse image. O(sets).
  CacheImagePtr capture() const;

  /// Makes this cache's state equal `image`, which must come from a cache
  /// built from the same geometry and config. The cache remembers the
  /// image it last restored and which sets changed since, so restoring
  /// the same image again (recycling) costs O(sets touched), and any
  /// other image O(sets touched + its rows + the previous image's rows) —
  /// a freshly built cache is the empty image.
  void restore(const CacheImagePtr& image);

  /// Reads one image written by encode_cache_image for a cache shaped like
  /// this one (geometry, replacement policy). Throws io::DecodeError on
  /// anything out of shape: a row count above the set count, unsorted or
  /// out-of-range sets, ways or PLRU bits beyond the geometry.
  CacheImagePtr decode_image(io::Reader& r) const;

 private:
  /// Empty-slot sentinel. Slots store the full line index (addr /
  /// line_size) whole — a truncated tag cannot reconstruct the evicted
  /// address under a keyed permutation — with this value marking an invalid
  /// way. All-ones is unreachable as a real index for any line size > 1,
  /// and folding validity into the index keeps each set's ways in one
  /// compact 8-byte-per-way row for the SIMD tag probe.
  static constexpr std::uint64_t kInvalidLine = ~std::uint64_t{0};

  std::uint64_t& tag_at(std::uint64_t set, std::uint32_t way);
  std::uint64_t tag_at(std::uint64_t set, std::uint32_t way) const;
  std::optional<Slot> find_slot(std::uint64_t line) const;
  Slot pick_victim(std::uint64_t line, WayMask allowed);
  std::optional<PhysAddr> fill_impl(PhysAddr addr, WayMask allowed,
                                    CoreId requester, bool check_resident,
                                    std::uint8_t* evicted_sharers);

  /// Replacement-state entry points. Tree-PLRU — the default policy on
  /// every modelled cache — lives packed in the plru_ plane and is handled
  /// inline; other policies dispatch to the per-set policy_ objects.
  void policy_touch(std::uint64_t set, std::uint32_t way);
  std::uint32_t policy_victim(std::uint64_t set);
  void policy_invalidate(std::uint64_t set, std::uint32_t way);

  /// Precomputes the per-way PLRU update masks (the node path and bit
  /// values a touch/invalidate writes depend only on the way index).
  void build_plru_masks();

  /// Re-derives the devirtualized shortcuts (way_dependent_, direct set
  /// mask) from indexing_. Called at construction and after rekey().
  void refresh_indexing_shortcuts();
  std::uint64_t line_index_of(PhysAddr addr) const {
    return addr.raw >> line_shift_;
  }

  Geometry geometry_;
  std::unique_ptr<IndexingPolicy> indexing_;
  std::unique_ptr<FillPolicy> fill_;
  /// Tag plane: sets * ways line indices, row-major by set.
  std::vector<std::uint64_t> tags_;
  /// Meta plane: per-set bitmask of occupied ways (bit w == way w valid).
  /// Mirrors tags_ != kInvalidLine; kept coherent by fill/invalidate/flush.
  std::vector<std::uint64_t> valid_;
  /// One policy object per set — empty when flat_plru_ is set (the
  /// per-set RNG forks are still drawn so sibling streams don't shift).
  std::vector<std::unique_ptr<ReplacementPolicy>> policy_;
  /// PLRU plane: tree-PLRU direction bits, (ways - 1) of them packed into
  /// one word per set (bit i == node i), when flat_plru_. Same update rules
  /// as replacement.cc's TreePlruPolicy, kept packed so a touch is one
  /// load, two masks and one store.
  std::vector<std::uint64_t> plru_;
  /// touch(way): plru = (plru & ~plru_path_[way]) | plru_touch_[way];
  /// invalidate(way): ... | plru_point_[way] (points AT the way instead).
  std::vector<std::uint64_t> plru_path_;
  std::vector<std::uint64_t> plru_touch_;
  std::vector<std::uint64_t> plru_point_;
  bool flat_plru_ = false;
  std::uint32_t plru_depth_ = 0;  // log2(ways)
  /// Core-valid plane, sets * ways bytes (null unless track_sharers());
  /// meaningful only on valid ways.
  std::unique_ptr<std::uint8_t[]> sharers_;
  std::vector<std::uint64_t> set_evictions_;
  CacheStats stats_;
  /// log2(line_size); validate() guarantees a power-of-two line size, so
  /// every addr→line-index division on the access paths becomes a shift.
  std::uint32_t line_shift_ = 0;
  /// Low `ways` bits set — the universe for valid_/allowed intersections.
  std::uint64_t ways_mask_ = 0;
  bool way_dependent_ = false;
  /// When the indexing policy is the classic modulo design its set mapping
  /// is inlined as `line & direct_mask_`, skipping the virtual call on
  /// every lookup/fill/invalidate (the dominant cost in covert-channel
  /// runs, which are one long clflush+probe loop).
  bool direct_modulo_ = false;
  std::uint64_t direct_mask_ = 0;
  /// True for the default "all" fill policy: every miss admitted, all ways
  /// allowed, so fill() skips both of its per-miss virtual calls.
  bool fill_passthrough_ = false;
  /// Forked last in the constructor; the default (modulo / all-ways) stack
  /// never draws from it, keeping legacy streams byte-identical.
  Rng rng_;

  void clear_row(std::uint64_t set);
  void write_row(const CacheImage& image, std::size_t row);

  /// Dirty-set tracking for restore(): every mutating access stamps its set
  /// with the current generation and (first time per generation) records
  /// it in dirty_sets_. A generation bump is the O(1) "mark all clean";
  /// dirty_sets_ keeps its capacity across trials so steady-state tracking
  /// allocates nothing.
  void mark_dirty(std::uint64_t set) {
    if (set_stamp_[set] == stamp_gen_) return;
    set_stamp_[set] = stamp_gen_;
    dirty_sets_.push_back(static_cast<std::uint32_t>(set));
  }
  std::vector<std::uint32_t> dirty_sets_;
  std::vector<std::uint64_t> set_stamp_;
  std::uint64_t stamp_gen_ = 1;
  /// The image the planes equal outside dirty_sets_ (null: a freshly built
  /// cache), and each set's row in it (kNoRow: a pristine row), allocated
  /// on the first restore.
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
  CacheImagePtr baseline_;
  std::vector<std::uint32_t> baseline_row_;
};

}  // namespace meecc::cache
