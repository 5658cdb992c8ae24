#include "mee/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace meecc::mee {
namespace {

std::string tamper_message(Level level, PhysAddr addr) {
  std::ostringstream os;
  os << "MEE integrity violation at " << to_string(level) << " node, paddr=0x"
     << std::hex << addr.raw;
  return os.str();
}

bool line_is_zero(const mem::Line& line) {
  return std::all_of(line.begin(), line.end(),
                     [](std::uint8_t b) { return b == 0; });
}

constexpr std::array<Level, kDramLevels> kWalkOrder = {
    Level::kVersions, Level::kL0, Level::kL1, Level::kL2};

/// Counter-name spellings of StopLevel, matching the fig5 metric names.
constexpr std::array<std::string_view, 5> kStopNames = {"versions", "l0", "l1",
                                                        "l2", "root"};

std::array<obs::Counter, 5> make_stop_counters(obs::Registry& registry,
                                               std::string_view group) {
  std::array<obs::Counter, 5> counters;
  for (std::size_t level = 0; level < counters.size(); ++level)
    counters[level] = registry.counter(group, kStopNames[level]);
  return counters;
}

}  // namespace

TamperDetected::TamperDetected(Level level, PhysAddr addr)
    : std::runtime_error(tamper_message(level, addr)),
      level_(level),
      addr_(addr) {}

MeeEngine::MeeEngine(const mem::AddressMap& map, mem::PhysicalMemory& memory,
                     const MeeConfig& config, Rng rng, obs::Hub* hub)
    : map_(map),
      memory_(memory),
      config_(config),
      geometry_(map),
      cache_(config.cache_geometry, config.cache_policy, rng.fork()),
      cipher_(config.data_key),
      mac_(crypto::make_mac_scheme(config.mac_kind, config.mac_key)),
      root_counters_(geometry_.root_entries(), 0),
      rng_(rng),
      hub_(hub) {
  // The counters ARE the bookkeeping (stats() reads them back), so they
  // must count even without a hub: engines built standalone bind against a
  // private registry instead.
  if (hub_ == nullptr) local_registry_ = std::make_unique<obs::Registry>();
  registry_ = hub_ != nullptr ? &hub_->registry() : local_registry_.get();
  auto& registry = *registry_;
  read_walks_ = registry.counter("mee", "read_walks");
  write_walks_ = registry.counter("mee", "write_walks");
  nodes_fetched_ = registry.counter("mee", "nodes_fetched");
  mac_node_verifies_ = registry.counter("mee.mac", "node_verifies");
  mac_tag_verifies_ = registry.counter("mee.mac", "tag_verifies");
  // The MEE cache's even/odd set-class split: versions-walk lookups land
  // in even sets, PD_Tag lookups in the odd partner sets (paper §4).
  versions_class_hits_ = registry.counter("mee.cache.versions_class", "hits");
  versions_class_misses_ =
      registry.counter("mee.cache.versions_class", "misses");
  tag_hits_ = registry.counter("mee.cache.tag_class", "hits");
  tag_misses_ = registry.counter("mee.cache.tag_class", "misses");
  tampers_ = registry.counter("mee", "tampers_detected");
  wait_cycles_ = registry.counter("mee", "wait_cycles");
  rekeys_ = registry.counter("mee.cache", "rekeys");
  stop_counters_ = make_stop_counters(registry, "mee.stop");
  // Keystream/pad cache: cipher and MAC share one hit/miss counter pair so
  // crypto.pad.* reflects all nonce-keyed AES the engine avoided.
  const auto pad_hit = registry.counter("crypto.pad", "hit");
  const auto pad_miss = registry.counter("crypto.pad", "miss");
  cipher_.set_pad_counters(pad_hit, pad_miss);
  mac_->set_pad_counters(pad_hit, pad_miss);
}

MeeStats MeeEngine::stats() const {
  MeeStats stats;
  for (std::size_t level = 0; level < stats.stops.size(); ++level)
    stats.stops[level] = stop_counters_[level].value();
  stats.reads = read_walks_.value();
  stats.writes = write_walks_.value();
  stats.tag_hits = tag_hits_.value();
  stats.tag_misses = tag_misses_.value();
  stats.tampers_detected = tampers_.value();
  return stats;
}

void MeeEngine::count_walk(CoreId core, const WalkResult& walk,
                           PhysAddr data_addr, Cycles now, bool is_write) {
  const auto level = static_cast<std::size_t>(walk.stop_level);
  stop_counters_[level].inc();
  nodes_fetched_.inc(walk.fetched_count);
  if (walk.stop_level == Level::kVersions)
    versions_class_hits_.inc();
  else
    versions_class_misses_.inc();
  if (core.value >= per_core_stops_.size())
    per_core_stops_.resize(core.value + 1);
  if (!per_core_stops_[core.value][level].bound()) {
    per_core_stops_[core.value] = make_stop_counters(
        *registry_, "mee.core" + std::to_string(core.value) + ".stop");
  }
  per_core_stops_[core.value][level].inc();
  if (hub_ != nullptr && hub_->tracing())
    hub_->trace({.cycle = now == kArriveWhenIdle ? Cycles{0} : now,
                 .component = obs::Component::kMee,
                 .core = core.value,
                 .addr = data_addr.raw,
                 .kind = is_write ? "write_walk" : "walk",
                 .outcome = kStopNames[level],
                 .value = static_cast<std::int64_t>(walk.fetched_count)});
}

MeeEngine::State MeeEngine::export_state() const {
  return State{.cache = cache_.capture(),
               .root_counters = root_counters_,
               .rng = rng_,
               .busy_until = busy_until_,
               .walks_since_rekey = walks_since_rekey_,
               .cipher_pads = cipher_.export_pad_state(),
               .mac_pads = mac_->export_pad_state()};
}

void MeeEngine::import_state(const State& state) {
  cache_.restore(state.cache);
  root_counters_ = state.root_counters;
  rng_ = state.rng;
  busy_until_ = state.busy_until;
  walks_since_rekey_ = state.walks_since_rekey;
  cipher_.import_pad_state(state.cipher_pads);
  mac_->import_pad_state(state.mac_pads.get());
}

void MeeEngine::maybe_rekey() {
  const auto period = config_.cache_policy.rekey_period;
  if (period == 0) return;
  if (++walks_since_rekey_ < period) return;
  walks_since_rekey_ = 0;
  // Flush-and-rekey: residents indexed under the old key would be
  // unfindable, so the flush is a correctness requirement, and it is
  // exactly what makes rekeying a (costly) mitigation — every walk after
  // this misses down to the root.
  cache_.rekey();
  rekeys_.inc();
}

std::uint64_t MeeEngine::parent_counter(Level level, std::uint64_t chunk) const {
  if (level == Level::kL2) {
    return root_counters_.at(geometry_.node_index(Level::kL2, chunk));
  }
  const auto parent_level = static_cast<Level>(static_cast<int>(level) + 1);
  const mem::Line* parent =
      memory_.find_line(geometry_.node_addr(parent_level, chunk));
  if (parent == nullptr) return 0;  // never written: genesis, all counters 0
  return decode_field56(*parent, geometry_.slot_in_parent(level, chunk));
}

void MeeEngine::verify_node(Level level, std::uint64_t chunk) {
  if (!config_.functional_crypto) return;
  const PhysAddr addr = geometry_.node_addr(level, chunk);
  const mem::Line* raw = memory_.find_line(addr);
  const std::uint64_t parent = parent_counter(level, chunk);
  if (raw == nullptr) {
    // Never-written node: reads as all zeros, i.e. genesis, without paying
    // for a 64 B copy and a nine-field decode.
    if (parent != 0) {
      tampers_.inc();
      throw TamperDetected(level, addr);
    }
    mac_node_verifies_.inc();
    return;
  }
  const TreeNode node = decode_node(*raw);
  if (node.is_genesis()) {
    if (parent != 0) {
      tampers_.inc();
      throw TamperDetected(level, addr);
    }
    mac_node_verifies_.inc();
    return;
  }
  const auto payload = counter_payload(node);
  if (!mac_->verify(addr.raw, parent, payload, node.mac)) {
    tampers_.inc();
    throw TamperDetected(level, addr);
  }
  mac_node_verifies_.inc();
}

MeeEngine::WalkResult MeeEngine::walk_and_verify(CoreId core,
                                                 std::uint64_t chunk) {
  WalkResult result;
  for (Level level : kWalkOrder) {
    const PhysAddr addr = geometry_.node_addr(level, chunk);
    if (cache_.lookup(addr)) {
      result.stop_level = level;
      break;
    }
    result.fetched[result.fetched_count++] = level;
  }
  if (result.fetched_count == kDramLevels) result.stop_level = Level::kRoot;

  // Verify top-down: each node's MAC key (the parent counter) is trusted by
  // the time we check it — either the parent was a cache hit / the root, or
  // it was verified in an earlier iteration of this loop. Tamper accounting
  // lives in verify_node's throw sites: wrapping this loop in try/catch puts
  // an EH region on the cold-walk hot path and costs ~25% even when tracing
  // is compiled out.
  for (std::uint32_t i = result.fetched_count; i-- > 0;)
    verify_node(result.fetched[i], chunk);

  // Install the now-verified nodes, top-down so the versions line ends up
  // most recently used (it is re-checked on every subsequent access). The
  // fill policy (all / partition / random) decides which ways `core` may
  // claim. Each node missed during the walk and the verify loop never
  // touches the cache; the fills install distinct node addresses, so every
  // address here is still absent and fill_after_miss applies.
  for (std::uint32_t i = result.fetched_count; i-- > 0;)
    cache_.fill_after_miss(geometry_.node_addr(result.fetched[i], chunk),
                           cache::kAllWays, core);

  return result;
}

Cycles MeeEngine::walk_latency(std::uint32_t nodes_fetched) {
  double extra = static_cast<double>(config_.latency.versions_hit_extra);
  if (nodes_fetched > 0) {
    extra += static_cast<double>(config_.latency.versions_miss_serialization);
    extra += static_cast<double>(config_.latency.per_level_step) *
             (nodes_fetched - 1);
  }
  extra += rng_.next_gaussian(0.0, config_.latency.step_jitter_stddev);
  return static_cast<Cycles>(std::llround(std::max(extra, 1.0)));
}

Cycles MeeEngine::occupy_engine(Cycles now, std::uint32_t nodes_fetched) {
  const Cycles service =
      config_.latency.service_base +
      config_.latency.service_per_node * nodes_fetched;
  if (now == kArriveWhenIdle) {
    busy_until_ += service;  // serialized caller: never waits
    return 0;
  }
  const Cycles wait = busy_until_ > now ? busy_until_ - now : 0;
  wait_cycles_.inc(wait);
  busy_until_ = now + wait + service;
  return wait;
}

MeeAccessResult MeeEngine::read_line(CoreId core, PhysAddr data_addr,
                                     mem::Line* out, Cycles now) {
  MEECC_CHECK(map_.classify(data_addr) == mem::RegionKind::kProtectedData);
  read_walks_.inc();
  maybe_rekey();
  const std::uint64_t chunk = geometry_.chunk_of(data_addr);
  const std::uint32_t slot = geometry_.line_in_chunk(data_addr);
  const PhysAddr line_addr = data_addr.line_base();

  const WalkResult walk = walk_and_verify(core, chunk);
  count_walk(core, walk, data_addr, now, /*is_write=*/false);

  // PD_Tag line: fetched alongside the versions line (even/odd set pair);
  // its DRAM fetch overlaps the data fetch, so it adds no latency class.
  const PhysAddr tag_addr = geometry_.tag_line_addr(chunk);
  if (cache_.lookup(tag_addr)) {
    tag_hits_.inc();
  } else {
    tag_misses_.inc();
    cache_.fill_after_miss(tag_addr, cache::kAllWays, core);
  }

  if (config_.functional_crypto) {
    // Zero-copy probes: a null line reads as all zeros, so a missing
    // versions/tag/data line means version 0 / tag 0 / zero ciphertext —
    // the genesis test below needs no copies and no full-node decodes.
    const mem::Line* versions_raw =
        memory_.find_line(geometry_.versions_line_addr(chunk));
    const std::uint64_t version =
        versions_raw != nullptr ? decode_field56(*versions_raw, slot) : 0;
    const mem::Line* tags_raw = memory_.find_line(tag_addr);
    const std::uint64_t expected_tag =
        tags_raw != nullptr ? decode_field56(*tags_raw, slot) : 0;
    const mem::Line* data_raw = memory_.find_line(line_addr);

    if (version == 0 && expected_tag == 0 &&
        (data_raw == nullptr || line_is_zero(*data_raw))) {
      if (out) out->fill(0);  // genesis: never written
    } else {
      const mem::Line ciphertext =
          data_raw != nullptr ? *data_raw : mem::Line{};
      mac_tag_verifies_.inc();
      if (!mac_->verify(line_addr.raw, version, ciphertext, expected_tag)) {
        tampers_.inc();
        throw TamperDetected(Level::kVersions, line_addr);
      }
      if (out) *out = cipher_.decrypt(ciphertext, line_addr.raw, version);
    }
  } else if (out) {
    *out = memory_.read_line(line_addr);
  }

  MeeAccessResult result;
  result.stop_level = walk.stop_level;
  result.nodes_fetched = walk.fetched_count;
  result.extra_latency = walk_latency(result.nodes_fetched) +
                         occupy_engine(now, result.nodes_fetched);
  return result;
}

MeeAccessResult MeeEngine::write_line(CoreId core, PhysAddr data_addr,
                                      const mem::Line& plaintext, Cycles now) {
  MEECC_CHECK(map_.classify(data_addr) == mem::RegionKind::kProtectedData);
  write_walks_.inc();
  maybe_rekey();
  const std::uint64_t chunk = geometry_.chunk_of(data_addr);
  const std::uint32_t slot = geometry_.line_in_chunk(data_addr);
  const PhysAddr line_addr = data_addr.line_base();

  // Verify the existing path before trusting any counter we will bump.
  const WalkResult walk = walk_and_verify(core, chunk);
  count_walk(core, walk, data_addr, now, /*is_write=*/true);

  if (config_.functional_crypto) {
    // Bump the whole counter chain (eager update, write-through to root).
    std::array<TreeNode, kDramLevels> nodes;
    for (Level level : kWalkOrder) {
      nodes[static_cast<std::size_t>(level)] =
          decode_node(memory_.read_line(geometry_.node_addr(level, chunk)));
    }
    auto bump = [](std::uint64_t& counter) {
      MEECC_CHECK_MSG(counter + 1 <= kCounterMask, "version counter overflow");
      ++counter;
    };
    bump(nodes[0].counters[slot]);  // data line version
    bump(nodes[1].counters[geometry_.slot_in_parent(Level::kVersions, chunk)]);
    bump(nodes[2].counters[geometry_.slot_in_parent(Level::kL0, chunk)]);
    bump(nodes[3].counters[geometry_.slot_in_parent(Level::kL1, chunk)]);
    bump(root_counters_.at(geometry_.node_index(Level::kL2, chunk)));

    // Re-MAC bottom-up against the freshly bumped parent counters.
    for (Level level : kWalkOrder) {
      auto& node = nodes[static_cast<std::size_t>(level)];
      const PhysAddr addr = geometry_.node_addr(level, chunk);
      std::uint64_t parent;
      if (level == Level::kL2) {
        parent = root_counters_.at(geometry_.node_index(Level::kL2, chunk));
      } else {
        parent = nodes[static_cast<std::size_t>(level) + 1]
                     .counters[geometry_.slot_in_parent(level, chunk)];
      }
      node.mac = mac_->tag(addr.raw, parent, counter_payload(node));
      memory_.write_line(addr, encode_node(node));
    }

    // Encrypt + retag the data line under the new version.
    const std::uint64_t version = nodes[0].counters[slot];
    const mem::Line ciphertext =
        cipher_.encrypt(plaintext, line_addr.raw, version);
    memory_.write_line(line_addr, ciphertext);

    const PhysAddr tag_addr = geometry_.tag_line_addr(chunk);
    TagLine tags = decode_tags(memory_.read_line(tag_addr));
    tags.tags[slot] = mac_->tag(line_addr.raw, version, ciphertext);
    memory_.write_line(tag_addr, encode_tags(tags));
  } else {
    memory_.write_line(line_addr, plaintext);
  }

  // The whole path plus the tag line is hot after a write.
  for (Level level : kWalkOrder)
    cache_.fill(geometry_.node_addr(level, chunk), cache::kAllWays, core);
  cache_.fill(geometry_.tag_line_addr(chunk), cache::kAllWays, core);

  MeeAccessResult result;
  result.stop_level = walk.stop_level;
  result.nodes_fetched = walk.fetched_count;
  result.extra_latency = walk_latency(result.nodes_fetched) +
                         config_.latency.write_update_extra +
                         occupy_engine(now, result.nodes_fetched);
  return result;
}

std::uint64_t MeeEngine::version_counter(PhysAddr data_addr) const {
  const std::uint64_t chunk = geometry_.chunk_of(data_addr);
  const std::uint32_t slot = geometry_.line_in_chunk(data_addr);
  const mem::Line* versions =
      memory_.find_line(geometry_.versions_line_addr(chunk));
  return versions != nullptr ? decode_field56(*versions, slot) : 0;
}

}  // namespace meecc::mee
