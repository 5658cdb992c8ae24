// Hierarchical named counters.
//
// A Registry owns one uint64 slot per "<group>.<name>" counter; components
// resolve a Counter handle once (at construction) and bump it on the hot
// path with a single predictable-branch increment. Handles stay valid for
// the Registry's lifetime because slots live in node-based maps.
//
// A detached (default-constructed) Counter is a no-op, so components built
// without an observability hub — unit tests, microbenchmarks — pay one
// null check per event and nothing else.
//
// Snapshots are plain sorted vectors: deterministic to serialize, cheap to
// merge across the several System instances one trial may build (fig6
// builds two machines; their counters add). Sample names are interned, so
// taking, merging and copying a snapshot allocates only the vector.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace meecc::obs {

class Registry;

/// An interned counter name: a pointer to the one process-wide copy of its
/// text, so copying it never allocates and equality is pointer equality.
/// Constructing one from text looks the text up under a lock (adding it on
/// first use); the set of distinct names is the program's counter set, and
/// the copies live until the process exits.
class CounterName {
 public:
  CounterName();  ///< the empty name
  CounterName(std::string_view text);
  CounterName(const std::string& text) : CounterName(std::string_view(text)) {}
  CounterName(const char* text) : CounterName(std::string_view(text)) {}

  /// Interns "<group>.<name>" without building a temporary string.
  static CounterName join(std::string_view group, std::string_view name);

  const std::string& str() const { return *text_; }
  std::string_view view() const { return *text_; }
  operator std::string_view() const { return *text_; }

  friend bool operator==(const CounterName& a, const CounterName& b) {
    return a.text_ == b.text_;
  }
  /// Lexicographic by text: the serialization order of snapshots.
  friend std::strong_ordering operator<=>(const CounterName& a,
                                          const CounterName& b) {
    return a.text_ == b.text_ ? std::strong_ordering::equal
                              : a.text_->compare(*b.text_) <=> 0;
  }

 private:
  const std::string* text_;
};

std::ostream& operator<<(std::ostream& out, const CounterName& name);

namespace detail {

/// One counter's storage: the live value, the baseline recorded by the last
/// full restore (or reset), an intrusive dirty link and the dotted name.
/// `next_dirty` is nullptr while the slot is clean; the first post-baseline
/// increment links the slot into its registry's dirty list, so rewinding to
/// the baseline touches only counters that actually moved.
struct CounterSlot {
  std::uint64_t value = 0;
  std::uint64_t baseline = 0;
  CounterSlot* next_dirty = nullptr;
  CounterName name;
};

/// Terminator of every dirty list (distinct from nullptr, which marks a
/// clean slot).
inline CounterSlot dirty_list_end;

}  // namespace detail

/// Cheap handle to one registry slot. Copyable; unbound handles drop
/// increments.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
    if (slot_ == nullptr) return;
    slot_->value += n;
    // First touch since the baseline: link into the dirty list. The branch
    // is predictable (taken once per slot per trial) and the link field
    // shares the slot's cache line.
    if (slot_->next_dirty == nullptr) {
      slot_->next_dirty = *dirty_head_;
      *dirty_head_ = slot_;
    }
  }
  std::uint64_t value() const { return slot_ != nullptr ? slot_->value : 0; }
  bool bound() const { return slot_ != nullptr; }

 private:
  friend class Registry;
  Counter(detail::CounterSlot* slot, detail::CounterSlot** dirty_head)
      : slot_(slot), dirty_head_(dirty_head) {}

  detail::CounterSlot* slot_ = nullptr;
  detail::CounterSlot** dirty_head_ = nullptr;
};

/// One counter's value at snapshot time; `name` is the full dotted path.
struct CounterSample {
  CounterName name;
  std::uint64_t value = 0;

  friend bool operator==(const CounterSample&, const CounterSample&) = default;
};

/// All counters of a registry (or a merged set of registries), sorted by
/// name. The sorted order is the serialization order everywhere.
using CounterSnapshot = std::vector<CounterSample>;

/// Adds `src` values into `dst` (union of names, values summed).
void merge_into(CounterSnapshot& dst, const CounterSnapshot& src);

/// Value of `name`, or 0 when absent.
std::uint64_t snapshot_value(const CounterSnapshot& snapshot,
                             std::string_view name);

/// Sum of every counter whose name starts with `prefix` ("mee.stop.").
std::uint64_t snapshot_total(const CounterSnapshot& snapshot,
                             std::string_view prefix);

/// Handle to one component's group; counter("hits") under group "cache.l1"
/// names "cache.l1.hits". Detached groups hand out detached counters.
class CounterGroup {
 public:
  CounterGroup() = default;

  Counter counter(std::string_view name);

 private:
  friend class Registry;
  CounterGroup(Registry* registry, std::string group)
      : registry_(registry), group_(std::move(group)) {}

  Registry* registry_ = nullptr;
  std::string group_;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolves (creating on first use) the slot for "<group>.<name>".
  Counter counter(std::string_view group, std::string_view name);

  /// Component-facing handle; the group itself is created lazily.
  CounterGroup group(std::string_view name);

  /// Sorted snapshot of every registered counter.
  CounterSnapshot snapshot() const;

  /// Zeroes all values; handles stay valid. Experiments call this after
  /// setup so counters describe only the measured section.
  void reset();

  /// Full value image keyed by (group, name) — the nested shape, not the
  /// flattened dotted names, because "a.b"."c" and "a"."b.c" flatten to the
  /// same string and could not be split back apart.
  using State = std::map<
      std::string, std::map<std::string, std::uint64_t, std::less<>>,
      std::less<>>;

  /// Copies every slot's current value (snapshot/fork support).
  State capture() const;

  /// Writes `state` back into the slots, creating any missing ones so
  /// lazily-bound counters (per-core stop levels, channel send/probe) are
  /// restored even before their component re-binds them. Slots absent from
  /// `state` are zeroed. Existing handles stay valid. Also records `state`
  /// as the new baseline, making a later restore_to_baseline() O(touched).
  void restore(const State& state);

  /// Rewinds every counter to the baseline recorded by the last restore()
  /// or reset(). O(counters touched since then) — the recycled-System fast
  /// path for re-running trials from the same snapshot.
  void restore_to_baseline();

  /// Bumped on every operation that re-records the baseline (restore,
  /// reset). Lets a caller detect that the baseline it remembers is stale.
  std::uint64_t baseline_epoch() const { return baseline_epoch_; }

 private:
  void clear_dirty_list();
  /// The slot for (group, name), created with its interned name on first
  /// use.
  detail::CounterSlot& slot_at(std::string_view group, std::string_view name);

  // Node-based nested maps: value slots never move, so Counter handles
  // survive later registrations.
  std::map<std::string,
           std::map<std::string, detail::CounterSlot, std::less<>>,
           std::less<>>
      groups_;
  std::size_t slot_count_ = 0;
  detail::CounterSlot* dirty_head_ = &detail::dirty_list_end;
  std::uint64_t baseline_epoch_ = 0;
};

}  // namespace meecc::obs
