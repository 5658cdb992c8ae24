#include "channel/prime_probe.h"

#include <algorithm>

#include "channel/candidates.h"
#include "channel/classify.h"
#include "channel/primitives.h"
#include "common/check.h"
#include "obs/hub.h"

namespace meecc::channel {
namespace {

struct DiscoveryShared {
  bool stop_beacon = false;
  bool done = false;
  bool beacon_exited = false;
  bool found = false;
  VirtAddr address{};
};

sim::Process spy_prime_beacon(sim::Actor& actor, std::vector<VirtAddr> set,
                              Cycles period, DiscoveryShared* shared) {
  // Rotated pass order: dislodges never-yet-evicted lines stuck in a
  // tree-PLRU orbit (see covert_channel.cc's discovery_beacon).
  std::size_t rotation = 0;
  while (!shared->stop_beacon) {
    std::vector<VirtAddr> order = set;
    std::rotate(order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(
                                    rotation++ % order.size()),
                order.end());
    co_await evict_two_phase(actor, order);
    co_await actor.sleep_for(period);
  }
  shared->beacon_exited = true;
}

/// Trojan looks for one of its own addresses that the spy's set evicts.
sim::Process trojan_conflict_scan(sim::Actor& actor,
                                  std::vector<VirtAddr> candidates,
                                  Cycles period, int rounds, double margin,
                                  DiscoveryShared* shared) {
  for (const VirtAddr candidate : candidates) {
    AdaptiveClassifier classifier(margin);
    co_await calibrate_on_hits(actor, candidate, classifier);
    int misses = 0;
    for (int r = 0; r < rounds; ++r) {
      // ≥ one full beacon cycle (prime pass + sleep) between probes.
      co_await actor.sleep_for(2 * period);
      const Cycles measured = co_await timed_probe(actor, candidate);
      if (classifier.is_miss(static_cast<double>(measured))) ++misses;
    }
    if (misses * 2 > rounds) {  // majority of rounds evicted
      shared->address = candidate;
      shared->found = true;
      break;
    }
  }
  shared->stop_beacon = true;
  shared->done = true;
}

struct TransferShared {
  Cycles t0 = 0;
  bool receiver_done = false;
};

sim::Process pp_sender(sim::Actor& actor, VirtAddr address,
                       std::vector<std::uint8_t> bits, PrimeProbeConfig config,
                       const TransferShared* shared) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Cycles window_start = shared->t0 + i * config.window;
    const Cycles jitter = actor.rng().next_below(config.sync_jitter + 1);
    co_await actor.sleep_until(window_start + jitter);
    if (bits[i] != 0) co_await touch_and_flush(actor, address);
  }
}

sim::Process pp_receiver(sim::Actor& actor, std::vector<VirtAddr> set,
                         std::size_t bit_count, PrimeProbeConfig config,
                         TransferShared* shared, PrimeProbeResult* result) {
  obs::Hub& hub = actor.system().hub();
  auto group = hub.registry().group("channel");
  obs::Counter probe_hits = group.counter("pp.probe.hits");
  obs::Counter probe_misses = group.counter("pp.probe.misses");

  const Cycles probe_phase =
      std::max(config.window - config.probe_phase_back, config.window / 2);
  const sim::TimerModel timer = sim::shared_clock_timer();

  // Initial prime + baseline calibration (one full all-hit probe).
  co_await actor.sleep_until(shared->t0 - 3 * config.window);
  co_await prime_pass(actor, set);
  AdaptiveClassifier classifier(config.classifier_margin);
  {
    const Cycles before = actor.read_timer(timer);
    for (const VirtAddr addr : set) co_await actor.read(addr);
    const Cycles after = actor.read_timer(timer);
    for (const VirtAddr addr : set) co_await actor.clflush(addr);
    classifier.calibrate(static_cast<double>(after - before));
  }

  for (std::size_t i = 0; i < bit_count; ++i) {
    const Cycles when = shared->t0 + i * config.window + probe_phase;
    const Cycles jitter = actor.rng().next_below(config.sync_jitter + 1);
    co_await actor.sleep_until(when + jitter);

    // Probe the WHOLE eviction set; the probe re-primes it for the next
    // window (every way is touched whether it hit or missed).
    const Cycles before = actor.read_timer(timer);
    for (const VirtAddr addr : set) co_await actor.read(addr);
    const Cycles after = actor.read_timer(timer);
    for (const VirtAddr addr : set) co_await actor.clflush(addr);

    const auto measured = static_cast<double>(after - before);
    const bool miss = classifier.is_miss(measured);
    (miss ? probe_misses : probe_hits).inc();
    if (hub.tracing())
      hub.trace({.cycle = actor.now(),
                 .component = obs::Component::kChannel,
                 .core = actor.core().value,
                 .addr = set.front().raw,
                 .kind = "pp_probe",
                 .outcome = miss ? "miss" : "hit",
                 .value = static_cast<std::int64_t>(after - before)});
    result->received.push_back(miss ? 1 : 0);
    result->probe_times.push_back(measured);
  }
  shared->receiver_done = true;
}

}  // namespace

PrimeProbeResult run_prime_probe_baseline(
    TestBed& bed, const PrimeProbeConfig& config,
    const std::vector<std::uint8_t>& payload) {
  MEECC_CHECK(!payload.empty());
  PrimeProbeResult result;
  result.sent = payload;

  // The SPY builds the eviction set (classic P+P role assignment).
  EvictionSetConfig ev_config = config.eviction;
  ev_config.offset_unit = config.offset_unit;
  ev_config.candidate_pages =
      std::min<std::uint64_t>(ev_config.candidate_pages,
                              bed.spy_enclave().page_count());
  {
    EvictionSetResult ev;
    bed.scheduler().spawn(find_eviction_set_process(
        bed.spy(), bed.spy_enclave(), ev_config, &ev));
    bed.scheduler().run_until_flag(ev.done);
    result.eviction = std::move(ev);
  }
  MEECC_CHECK_MSG(result.eviction.eviction_set.size() >= 2,
                  "spy failed to build an eviction set");

  // Trojan finds a single conflicting address. Align local clocks first
  // (Algorithm 1 advanced only the spy's).
  const Cycles discovery_start = bed.scheduler().now();
  bed.trojan().busy_wait_until(discovery_start);
  bed.spy().busy_wait_until(discovery_start);
  DiscoveryShared discovery;
  const auto trojan_candidates = make_candidate_set(
      bed.trojan_enclave(), 0, bed.trojan_enclave().page_count(),
      config.offset_unit);
  bed.scheduler().spawn(spy_prime_beacon(bed.spy(),
                                         result.eviction.eviction_set,
                                         config.beacon_period, &discovery));
  bed.scheduler().spawn(trojan_conflict_scan(
      bed.trojan(), trojan_candidates, config.beacon_period,
      config.discovery_rounds, 42.0, &discovery));
  bed.scheduler().run_until_flag(discovery.done);
  // Drain the beacon before the trojan moves on (see covert_channel.cc).
  bed.scheduler().run_until_flag(discovery.beacon_exited);
  MEECC_CHECK_MSG(discovery.found, "trojan found no conflicting address");
  result.trojan_address = discovery.address;
  result.trojan_address_found = true;

  // Transfer.
  TransferShared shared;
  shared.t0 = ((bed.scheduler().now() + 4 * config.window) / config.window + 1) *
              config.window;
  bed.scheduler().spawn(pp_sender(bed.trojan(), result.trojan_address, payload,
                                  config, &shared));
  bed.scheduler().spawn(pp_receiver(bed.spy(), result.eviction.eviction_set,
                                    payload.size(), config, &shared, &result));
  bed.scheduler().run_until_flag(shared.receiver_done);

  for (std::size_t i = 0; i < payload.size(); ++i)
    if (result.received[i] != payload[i]) ++result.bit_errors;
  result.error_rate = static_cast<double>(result.bit_errors) /
                      static_cast<double>(payload.size());
  return result;
}

}  // namespace meecc::channel
