#include "sim/snapshot_io.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace meecc::sim {

namespace {

void encode_memory(io::Writer& w, const mem::PhysicalMemory::Image& image) {
  if (!image) {
    w.u64(0);
    return;
  }
  // Sort the resident lines by address: unordered_map iteration order is
  // host-dependent and the encoding must be canonical.
  std::vector<std::pair<std::uint64_t, const mem::Line*>> lines;
  lines.reserve(image->size());
  for (const auto& [addr, line] : *image) lines.emplace_back(addr, &line);
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(lines.size());
  for (const auto& [addr, line] : lines) {
    w.u64(addr);
    w.bytes(line->data(), line->size());
  }
}

mem::PhysicalMemory::Image decode_memory(io::Reader& r) {
  const std::uint64_t count = r.count(8 + sizeof(mem::Line));  // addr + line
  if (count == 0) return nullptr;
  auto lines =
      std::make_shared<std::unordered_map<std::uint64_t, mem::Line>>();
  lines->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t addr = r.u64();
    mem::Line line;
    r.bytes(line.data(), line.size());
    if (!lines->emplace(addr, line).second)
      throw io::DecodeError("duplicate line address in DRAM image");
  }
  return lines;
}

void encode_counters(io::Writer& w, const obs::Registry::State& counters) {
  // std::map keeps both levels sorted, so iteration is already canonical.
  w.u64(counters.size());
  for (const auto& [group, slots] : counters) {
    w.str(group);
    w.u64(slots.size());
    for (const auto& [name, value] : slots) {
      w.str(name);
      w.u64(value);
    }
  }
}

obs::Registry::State decode_counters(io::Reader& r) {
  obs::Registry::State counters;
  const std::uint64_t groups = r.u64();
  for (std::uint64_t g = 0; g < groups; ++g) {
    std::string group = r.str();
    auto& slots = counters[std::move(group)];
    const std::uint64_t entries = r.u64();
    for (std::uint64_t e = 0; e < entries; ++e) {
      std::string name = r.str();
      slots[std::move(name)] = r.u64();
    }
  }
  return counters;
}

void encode_mee(io::Writer& w, System& shape, const mee::MeeEngine::State& mee) {
  cache::encode_cache_image(w, *mee.cache);
  w.u64(mee.root_counters.size());
  for (const std::uint64_t counter : mee.root_counters) w.u64(counter);
  encode_rng(w, mee.rng);
  w.u64(mee.busy_until);
  w.u64(mee.walks_since_rekey);
  mee.cipher_pads.encode_state(w);
  // The MAC pad state is type-erased; route it through the shape engine's
  // scheme, which knows the concrete pad type (scratch use — the shape's
  // own pads are clobbered).
  crypto::MacScheme& mac = shape.mee().mac_scheme();
  mac.import_pad_state(mee.mac_pads.get());
  mac.encode_pad_state(w);
}

mee::MeeEngine::State decode_mee(io::Reader& r, System& shape) {
  // Start from the shape's own export, which carries the pad-cache shapes
  // decode_state overwrites.
  mee::MeeEngine::State state = shape.mee().export_state();
  state.cache = shape.mee().cache().decode_image(r);
  const std::uint64_t roots = r.u64();
  if (roots != state.root_counters.size())
    throw io::DecodeError("root counter count mismatch");
  for (auto& counter : state.root_counters) counter = r.u64();
  state.rng = decode_rng(r);
  state.busy_until = r.u64();
  state.walks_since_rekey = r.u64();
  state.cipher_pads.decode_state(r);
  crypto::MacScheme& mac = shape.mee().mac_scheme();
  mac.decode_pad_state(r);
  state.mac_pads = mac.export_pad_state();
  return state;
}

}  // namespace

void encode_snapshot(io::Writer& w, System& shape,
                     const SystemSnapshot& snap) {
  encode_memory(w, snap.memory);
  encode_rng(w, snap.dram.rng);
  w.u64(snap.dram.accesses);
  w.u64(snap.hierarchy.l1.size());
  for (std::size_t c = 0; c < snap.hierarchy.l1.size(); ++c) {
    cache::encode_cache_image(w, *snap.hierarchy.l1[c]);
    cache::encode_cache_image(w, *snap.hierarchy.l2[c]);
  }
  cache::encode_cache_image(w, *snap.hierarchy.llc);
  encode_mee(w, shape, snap.mee);
  snap.peek_pads.encode_state(w);
  w.u64(snap.epc_cursor);
  w.u64(snap.general_cursor.raw);
  encode_rng(w, snap.rng);
  w.u64(snap.sched_now);
  w.u64(snap.sched_seq);
  encode_counters(w, snap.counters);
}

SystemSnapshot decode_snapshot(io::Reader& r, System& shape) {
  SystemSnapshot snap = shape.snapshot();
  snap.memory = decode_memory(r);
  snap.dram.rng = decode_rng(r);
  snap.dram.accesses = r.u64();
  const cache::Hierarchy& caches = shape.hierarchy();
  if (r.u64() != caches.core_count())
    throw io::DecodeError("cache level count mismatch");
  for (unsigned c = 0; c < caches.core_count(); ++c) {
    snap.hierarchy.l1[c] = caches.l1(CoreId{c}).decode_image(r);
    snap.hierarchy.l2[c] = caches.l2(CoreId{c}).decode_image(r);
  }
  snap.hierarchy.llc = caches.llc().decode_image(r);
  snap.mee = decode_mee(r, shape);
  snap.peek_pads.decode_state(r);
  snap.epc_cursor = static_cast<std::size_t>(r.u64());
  snap.general_cursor = PhysAddr{r.u64()};
  snap.rng = decode_rng(r);
  snap.sched_now = r.u64();
  snap.sched_seq = r.u64();
  snap.counters = decode_counters(r);
  return snap;
}

std::string serialize_snapshot(System& shape, const SystemSnapshot& snap,
                               std::uint64_t config_hash) {
  io::Writer w;
  encode_snapshot(w, shape, snap);
  return io::write_frame(kSnapshotMagic, kSnapshotFormatVersion, config_hash,
                         w.data());
}

SnapshotReadResult deserialize_snapshot(System& shape, std::string_view bytes,
                                        std::uint64_t expected_config_hash) {
  SnapshotReadResult result;
  const io::FrameView frame = io::read_frame(
      bytes, kSnapshotMagic, kSnapshotFormatVersion, expected_config_hash);
  result.status = frame.status;
  if (frame.status != io::FrameStatus::kOk) return result;
  io::Reader r(frame.payload);
  result.snapshot = std::make_unique<SystemSnapshot>(decode_snapshot(r, shape));
  r.expect_done();
  return result;
}

}  // namespace meecc::sim
