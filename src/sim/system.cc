#include "sim/system.h"

#include "common/check.h"
#include "obs/scope.h"

namespace meecc::sim {

System::System(const SystemConfig& config)
    : config_(config),
      rng_(config.seed),
      map_(config.address_map),
      dram_(config.dram, rng_.fork()),
      hierarchy_(config.hierarchy, config.cores, rng_.fork(), &hub_),
      mee_(std::make_unique<mee::MeeEngine>(map_, memory_, config.mee,
                                            rng_.fork(), &hub_)),
      peek_cipher_(config.mee.data_key),
      epc_allocator_(map_, config.epc_placement, rng_.fork()),
      general_allocator_(map_) {
  MEECC_CHECK(config.cores > 0);
  MEECC_CHECK(config.clock_ghz > 0.0);
  scheduler_.set_hub(&hub_);
  peek_cipher_.set_pad_counters(hub_.registry().counter("crypto.pad", "hit"),
                                hub_.registry().counter("crypto.pad", "miss"));
  auto sys = hub_.registry().group("sys");
  reads_ = sys.counter("reads");
  writes_ = sys.counter("writes");
  clflushes_ = sys.counter("clflushes");
  auto dram = hub_.registry().group("dram");
  dram_reads_ = dram.counter("reads");
  dram_protected_reads_ = dram.counter("protected_reads");
  if (auto* scope = obs::TrialScope::current())
    hub_.set_trace_sink(scope->trace_sink());
}

System::~System() {
  if (auto* scope = obs::TrialScope::current()) scope->absorb(hub_.registry());
}

void System::check_mode(CpuMode mode, PhysAddr paddr) const {
  const auto kind = map_.classify(paddr);
  MEECC_CHECK_MSG(kind != mem::RegionKind::kMeeMetadata,
                  "software cannot address MEE metadata directly");
  if (kind == mem::RegionKind::kProtectedData && mode != CpuMode::kEnclave) {
    throw ModeViolation(
        "non-enclave access to the protected data region (SGX aborts these)");
  }
}

AccessResult System::do_read(CoreId core, CpuMode mode,
                             const mem::VirtualAddressSpace& vas, VirtAddr addr,
                             Cycles now) {
  const PhysAddr paddr = vas.translate(addr);
  check_mode(mode, paddr);

  AccessResult result;
  reads_.inc();
  const auto hier = hierarchy_.access(core, paddr, now);
  result.cache_level = hier.level;
  result.latency = hier.lookup_latency;
  if (hier.level != cache::HitLevel::kMemory) {
    // On-chip hit: served from the CPU hierarchy, the MEE never sees it
    // (that is why the attack needs clflush — paper §3 challenge 1).
    if (map_.classify(paddr) == mem::RegionKind::kProtectedData &&
        mee_->config().functional_crypto) {
      // The hierarchy holds plaintext; model that by decrypting on the fly.
      // Reading through the MEE here would disturb its cache; peek instead.
      const std::uint64_t version = mee_->version_counter(paddr);
      const auto chunk_line = paddr.line_base();
      if (version == 0) {
        mem::Line plain;
        plain.fill(0);
        result.data = plain;
      } else {
        result.data = peek_cipher_.decrypt(memory_.read_line(paddr),
                                           chunk_line.raw, version);
      }
    } else {
      result.data = memory_.read_line(paddr);
    }
    if (hub_.tracing())
      hub_.trace({.cycle = now,
                  .component = obs::Component::kSystem,
                  .core = core.value,
                  .addr = paddr.raw,
                  .kind = "read",
                  .outcome = cache::to_string(hier.level),
                  .value = static_cast<std::int64_t>(result.latency)});
    return result;
  }

  result.latency += dram_.access_latency(now);
  dram_reads_.inc();
  if (map_.classify(paddr) == mem::RegionKind::kProtectedData) {
    dram_protected_reads_.inc();
    const auto mee_result = mee_->read_line(core, paddr, &result.data, now);
    result.mee_level = mee_result.stop_level;
    result.latency += mee_result.extra_latency;
  } else {
    result.data = memory_.read_line(paddr);
  }
  if (hub_.tracing())
    hub_.trace({.cycle = now,
                .component = obs::Component::kSystem,
                .core = core.value,
                .addr = paddr.raw,
                .kind = "read",
                .outcome = result.mee_level ? mee::to_string(*result.mee_level)
                                            : std::string_view{"DRAM"},
                .value = static_cast<std::int64_t>(result.latency)});
  return result;
}

AccessResult System::do_write(CoreId core, CpuMode mode,
                              const mem::VirtualAddressSpace& vas,
                              VirtAddr addr, const mem::Line& data,
                              Cycles now) {
  const PhysAddr paddr = vas.translate(addr);
  check_mode(mode, paddr);

  AccessResult result;
  writes_.inc();
  // Write-allocate: the line is brought into the hierarchy either way; the
  // store itself retires quickly, but for protected lines the writeback
  // (modelled synchronously) pays the MEE update path.
  const auto hier = hierarchy_.access(core, paddr, now);
  result.cache_level = hier.level;
  result.latency = hier.lookup_latency;
  if (hier.level == cache::HitLevel::kMemory) {
    result.latency += dram_.access_latency(now);
    dram_reads_.inc();  // write-allocate fill
  }

  if (map_.classify(paddr) == mem::RegionKind::kProtectedData) {
    const auto mee_result = mee_->write_line(core, paddr, data, now);
    result.mee_level = mee_result.stop_level;
    result.latency += mee_result.extra_latency;
  } else {
    memory_.write_line(paddr, data);
  }
  result.data = data;
  if (hub_.tracing())
    hub_.trace({.cycle = now,
                .component = obs::Component::kSystem,
                .core = core.value,
                .addr = paddr.raw,
                .kind = "write",
                .outcome = result.mee_level ? mee::to_string(*result.mee_level)
                                            : cache::to_string(hier.level),
                .value = static_cast<std::int64_t>(result.latency)});
  return result;
}

Cycles System::do_clflush(const mem::VirtualAddressSpace& vas, VirtAddr addr) {
  const PhysAddr paddr = vas.translate(addr);
  clflushes_.inc();
  const Cycles latency = hierarchy_.clflush(paddr);
  if (hub_.tracing())
    hub_.trace({.cycle = scheduler_.now(),
                .component = obs::Component::kSystem,
                .core = 0,
                .addr = paddr.raw,
                .kind = "clflush",
                .outcome = "done",
                .value = static_cast<std::int64_t>(latency)});
  return latency;
}

SystemSnapshot System::snapshot() {
  MEECC_CHECK_MSG(scheduler_.idle() && scheduler_.live_processes() == 0,
                  "snapshot needs a quiesced scheduler");
  return SystemSnapshot{.memory = memory_.snapshot(),
                        .dram = dram_.state(),
                        .hierarchy = hierarchy_.export_state(),
                        .mee = mee_->export_state(),
                        .peek_pads = peek_cipher_.export_pad_state(),
                        .epc_cursor = epc_allocator_.cursor(),
                        .general_cursor = general_allocator_.cursor(),
                        .rng = rng_,
                        .sched_now = scheduler_.now(),
                        .sched_seq = scheduler_.event_seq(),
                        .counters = hub_.registry().capture()};
}

void System::restore(const SystemSnapshot& snap) {
  memory_.restore(snap.memory);
  dram_.restore(snap.dram);
  hierarchy_.import_state(snap.hierarchy);
  mee_->import_state(snap.mee);
  peek_cipher_.import_pad_state(snap.peek_pads);
  epc_allocator_.restore_cursor(snap.epc_cursor);
  general_allocator_.restore_cursor(snap.general_cursor);
  rng_ = snap.rng;
  scheduler_.restore_clock(snap.sched_now, snap.sched_seq);
  hub_.registry().restore(snap.counters);
  last_restored_ = &snap;
  counter_epoch_ = hub_.registry().baseline_epoch();
}

void System::restore_into(const SystemSnapshot& snap) {
  const bool counters_current =
      last_restored_ == &snap &&
      counter_epoch_ == hub_.registry().baseline_epoch();
  memory_.restore(snap.memory);
  dram_.restore(snap.dram);
  hierarchy_.import_state(snap.hierarchy);
  mee_->import_state(snap.mee);
  peek_cipher_.import_pad_state(snap.peek_pads);
  epc_allocator_.restore_cursor(snap.epc_cursor);
  general_allocator_.restore_cursor(snap.general_cursor);
  rng_ = snap.rng;
  scheduler_.restore_clock(snap.sched_now, snap.sched_seq);
  if (counters_current) {
    // The registry's baseline is already this snapshot's counter image
    // (nothing reset it since the last restore from `snap`), so rewinding
    // the dirty set — O(counters the trial touched) — replaces the full
    // O(all slots) string-keyed restore.
    hub_.registry().restore_to_baseline();
  } else {
    hub_.registry().restore(snap.counters);
    last_restored_ = &snap;
  }
  counter_epoch_ = hub_.registry().baseline_epoch();
}

std::unique_ptr<System> System::fork(const SystemConfig& config,
                                     const SystemSnapshot& snap) {
  auto system = std::make_unique<System>(config);
  system->restore(snap);
  return system;
}

double System::bytes_per_second(double bits_per_cycle) const {
  return bits_per_cycle * config_.clock_ghz * 1e9 / 8.0;
}

}  // namespace meecc::sim
