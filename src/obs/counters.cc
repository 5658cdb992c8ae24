#include "obs/counters.h"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <set>

namespace meecc::obs {

namespace {

const std::string kEmptyName;

/// The intern table. Leaked on purpose: names must outlive every static
/// snapshot, and a std::set never moves its nodes.
struct InternTable {
  std::mutex mutex;
  std::set<std::string, std::less<>> names;
  std::string scratch;  ///< join()'s buffer, reused under the lock

  const std::string* intern(std::string_view text) {
    auto it = names.find(text);
    if (it == names.end()) it = names.emplace(text).first;
    return &*it;
  }
};

InternTable& intern_table() {
  static InternTable* table = new InternTable;
  return *table;
}

}  // namespace

CounterName::CounterName() : text_(&kEmptyName) {}

CounterName::CounterName(std::string_view text) {
  if (text.empty()) {
    text_ = &kEmptyName;
    return;
  }
  InternTable& table = intern_table();
  const std::lock_guard<std::mutex> lock(table.mutex);
  text_ = table.intern(text);
}

CounterName CounterName::join(std::string_view group, std::string_view name) {
  InternTable& table = intern_table();
  const std::lock_guard<std::mutex> lock(table.mutex);
  table.scratch.assign(group);
  table.scratch += '.';
  table.scratch += name;
  CounterName out;
  out.text_ = table.intern(table.scratch);
  return out;
}

std::ostream& operator<<(std::ostream& out, const CounterName& name) {
  return out << name.str();
}

Counter CounterGroup::counter(std::string_view name) {
  if (registry_ == nullptr) return Counter{};
  return registry_->counter(group_, name);
}

detail::CounterSlot& Registry::slot_at(std::string_view group,
                                       std::string_view name) {
  auto group_it = groups_.find(group);
  if (group_it == groups_.end())
    group_it = groups_.try_emplace(std::string(group)).first;
  auto& slots = group_it->second;
  auto it = slots.find(name);
  if (it == slots.end()) {
    it = slots.emplace(std::string(name), detail::CounterSlot{}).first;
    it->second.name = CounterName::join(group, name);
    ++slot_count_;
  }
  return it->second;
}

Counter Registry::counter(std::string_view group, std::string_view name) {
  return Counter{&slot_at(group, name), &dirty_head_};
}

CounterGroup Registry::group(std::string_view name) {
  return CounterGroup{this, std::string(name)};
}

CounterSnapshot Registry::snapshot() const {
  CounterSnapshot out;
  out.reserve(slot_count_);
  for (const auto& [group, slots] : groups_)
    for (const auto& [name, slot] : slots)
      out.push_back({slot.name, slot.value});
  // groups_ iterates sorted, but "a.b"."c" and "a"."b.c" interleave; sort
  // the flattened names so merged snapshots compare bit-identically.
  std::sort(out.begin(), out.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::clear_dirty_list() {
  detail::CounterSlot* slot = dirty_head_;
  while (slot != &detail::dirty_list_end) {
    detail::CounterSlot* next = slot->next_dirty;
    slot->next_dirty = nullptr;
    slot = next;
  }
  dirty_head_ = &detail::dirty_list_end;
}

void Registry::reset() {
  for (auto& [group, slots] : groups_)
    for (auto& [name, slot] : slots) slot.value = slot.baseline = 0;
  clear_dirty_list();
  ++baseline_epoch_;
}

Registry::State Registry::capture() const {
  State out;
  for (const auto& [group, slots] : groups_) {
    auto& values = out[group];
    for (const auto& [name, slot] : slots)
      values.emplace(name, slot.value);
  }
  return out;
}

void Registry::restore(const State& state) {
  // Zero first: slots registered after the capture must not keep post-capture
  // values, or a fork would double-count them.
  reset();
  for (const auto& [group, slots] : state)
    for (const auto& [name, value] : slots) {
      detail::CounterSlot& target = slot_at(group, name);
      target.value = target.baseline = value;
    }
}

void Registry::restore_to_baseline() {
  detail::CounterSlot* slot = dirty_head_;
  while (slot != &detail::dirty_list_end) {
    detail::CounterSlot* next = slot->next_dirty;
    slot->value = slot->baseline;
    slot->next_dirty = nullptr;
    slot = next;
  }
  dirty_head_ = &detail::dirty_list_end;
}

void merge_into(CounterSnapshot& dst, const CounterSnapshot& src) {
  CounterSnapshot out;
  out.reserve(dst.size() + src.size());
  std::size_t i = 0, j = 0;
  while (i < dst.size() || j < src.size()) {
    if (j >= src.size() || (i < dst.size() && dst[i].name < src[j].name)) {
      out.push_back(dst[i++]);
    } else if (i >= dst.size() || src[j].name < dst[i].name) {
      out.push_back(src[j++]);
    } else {
      out.push_back({dst[i].name, dst[i].value + src[j].value});
      ++i;
      ++j;
    }
  }
  dst = std::move(out);
}

std::uint64_t snapshot_value(const CounterSnapshot& snapshot,
                             std::string_view name) {
  for (const CounterSample& sample : snapshot)
    if (sample.name.view() == name) return sample.value;
  return 0;
}

std::uint64_t snapshot_total(const CounterSnapshot& snapshot,
                             std::string_view prefix) {
  std::uint64_t total = 0;
  for (const CounterSample& sample : snapshot)
    if (sample.name.view().starts_with(prefix)) total += sample.value;
  return total;
}

}  // namespace meecc::obs
