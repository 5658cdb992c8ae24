#include "channel/llc_baseline.h"

#include "channel/classify.h"
#include "common/check.h"
#include "sim/timer.h"

namespace meecc::channel {
namespace {

struct TransferShared {
  Cycles t0 = 0;
  bool receiver_done = false;
};

sim::Process llc_sender(sim::Actor& actor, VirtAddr address,
                        std::vector<std::uint8_t> bits, LlcChannelConfig config,
                        const TransferShared* shared) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Cycles window_start = shared->t0 + i * config.window;
    const Cycles jitter = actor.rng().next_below(config.sync_jitter + 1);
    co_await actor.sleep_until(window_start + jitter);
    if (bits[i] != 0) {
      co_await actor.read(address);
      co_await actor.clflush(address);
    }
  }
}

sim::Process llc_receiver(sim::Actor& actor, std::vector<VirtAddr> set,
                          std::size_t bit_count, LlcChannelConfig config,
                          TransferShared* shared, LlcChannelResult* result) {
  const Cycles probe_phase =
      std::max(config.window - config.probe_phase_back, config.window / 2);
  const sim::TimerModel timer = sim::native_rdtsc_timer();

  co_await actor.sleep_until(shared->t0 - 2 * config.window);
  for (const VirtAddr addr : set) co_await actor.read(addr);  // prime

  for (std::size_t i = 0; i < bit_count; ++i) {
    const Cycles when = shared->t0 + i * config.window + probe_phase;
    const Cycles jitter = actor.rng().next_below(config.sync_jitter + 1);
    co_await actor.sleep_until(when + jitter);
    // Probe = re-prime, timing EACH line: any DRAM-latency line means the
    // trojan evicted from this set. Probing in REVERSE prime order is the
    // classic P+P trick: a refill's replacement victim is then a line that
    // has already been probed, preventing self-eviction cascades.
    int misses = 0;
    double total = 0.0;
    for (auto it = set.rbegin(); it != set.rend(); ++it) {
      const Cycles before = actor.read_timer(timer);
      co_await actor.read(*it);
      const Cycles after = actor.read_timer(timer);
      const Cycles line_time = after - before;
      total += static_cast<double>(line_time);
      if (line_time > config.per_line_miss_threshold) ++misses;
    }
    result->received.push_back(misses > 0 ? 1 : 0);
    result->probe_times.push_back(total);
  }
  shared->receiver_done = true;
}

}  // namespace

LlcChannelResult run_llc_baseline(TestBed& bed, const LlcChannelConfig& config,
                                  const std::vector<std::uint8_t>& payload) {
  MEECC_CHECK(!payload.empty());
  LlcChannelResult result;
  result.sent = payload;

  // Ground-truth eviction set: lines one LLC way-span apart land in the same
  // set (what a hugepage mapping gives a real attacker). Frames are carved
  // from the top of the general region, away from the bump allocator.
  auto& system = bed.system();
  const auto llc = system.config().hierarchy.llc;
  const std::uint64_t way_span = llc.size_bytes / llc.ways;  // bytes per way
  const std::uint32_t ways = llc.ways;

  sim::Actor spy(system, CoreId{1}, CpuMode::kNonEnclave);
  sim::Actor trojan(system, CoreId{0}, CpuMode::kNonEnclave);

  const PhysAddr top = system.map().general().end();
  std::vector<VirtAddr> spy_set;
  const VirtAddr spy_base{0x4000'0000'0000ULL};
  for (std::uint32_t i = 0; i < ways; ++i) {
    const PhysAddr frame = top - (i + 1) * way_span;
    const VirtAddr page = spy_base + i * kPageSize;
    spy.vas().map_page(page, frame);
    spy_set.push_back(page);
  }
  const PhysAddr trojan_frame = top - (ways + 1) * way_span;
  const VirtAddr trojan_page{0x4100'0000'0000ULL};
  trojan.vas().map_page(trojan_page, trojan_frame);
  result.eviction_set_size = spy_set.size();

  TransferShared shared;
  shared.t0 = ((bed.scheduler().now() + 4 * config.window) / config.window + 1) *
              config.window;
  bed.scheduler().spawn(
      llc_sender(trojan, trojan_page, payload, config, &shared));
  bed.scheduler().spawn(llc_receiver(spy, spy_set, payload.size(), config,
                                     &shared, &result));
  bed.scheduler().run_until_flag(shared.receiver_done);

  for (std::size_t i = 0; i < payload.size(); ++i)
    if (result.received[i] != payload[i]) ++result.bit_errors;
  result.error_rate = static_cast<double>(result.bit_errors) /
                      static_cast<double>(payload.size());
  result.kilobytes_per_second =
      system.bytes_per_second(1.0 / static_cast<double>(config.window)) /
      1000.0;
  return result;
}

}  // namespace meecc::channel
