#include "channel/covert_channel.h"

#include <algorithm>

#include "channel/candidates.h"
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
  VirtAddr monitor{};
};

/// Trojan side of monitor discovery: keep evicting on a fixed cadence so the
/// spy can tell which of its candidates lives in the contested set. The pass
/// order rotates by one address per round: a line that has never been
/// evicted can sit in a tree-PLRU "orbit" that a fixed-order pass provably
/// never displaces; rotation dislodges any resident line within a few
/// rounds (after which the ordinary fixed-order eviction keeps working —
/// probe refills always land back inside the active orbit).
sim::Process discovery_beacon(sim::Actor& actor, std::vector<VirtAddr> set,
                              Cycles period, DiscoveryShared* shared) {
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

/// Spy side: scan own candidates; the monitor address is the one the
/// trojan's beacon keeps evicting.
sim::Process discovery_scan(sim::Actor& actor, std::vector<VirtAddr> candidates,
                            Cycles period, int rounds, double margin,
                            DiscoveryShared* shared) {
  for (const VirtAddr candidate : candidates) {
    AdaptiveClassifier classifier(margin);
    co_await calibrate_on_hits(actor, candidate, classifier);
    int misses = 0;
    for (int r = 0; r < rounds; ++r) {
      co_await actor.sleep_for(2 * period);  // ≥ one full beacon cycle (evict ~9k + sleep) in between
      const Cycles measured = co_await timed_probe(actor, candidate);
      if (classifier.is_miss(static_cast<double>(measured))) ++misses;
    }
    if (misses * 2 > rounds) {  // majority of rounds evicted
      shared->monitor = candidate;
      shared->found = true;
      break;
    }
  }
  shared->stop_beacon = true;
  shared->done = true;
}

/// Phase 2 — the spy discovers its monitor address against the trojan's
/// beacon over `eviction_set`.
DiscoveryShared discover_monitor(TestBed& bed, const ChannelConfig& config,
                                 const std::vector<VirtAddr>& eviction_set) {
  // Align both agents' local clocks first: Algorithm 1 advanced only the
  // trojan's, and a lagging spy would otherwise scan "before" the beacon.
  const Cycles phase2_start = bed.scheduler().now();
  bed.trojan().busy_wait_until(phase2_start);
  bed.spy().busy_wait_until(phase2_start);
  DiscoveryShared discovery;
  const auto spy_candidates =
      make_candidate_set(bed.spy_enclave(), 0,
                         bed.spy_enclave().page_count(), config.offset_unit);
  bed.scheduler().spawn(discovery_beacon(bed.trojan(), eviction_set,
                                         config.beacon_period, &discovery));
  bed.scheduler().spawn(discovery_scan(bed.spy(), spy_candidates,
                                       config.beacon_period,
                                       config.discovery_rounds,
                                       config.classifier_margin, &discovery));
  bed.scheduler().run_until_flag(discovery.done);
  // Drain the beacon before handing the trojan actor to the next phase: a
  // mid-eviction beacon sharing the actor with the transfer sender would
  // corrupt the shared local clock (and with it, MEE arrival times).
  bed.scheduler().run_until_flag(discovery.beacon_exited);
  return discovery;
}

struct TransferShared {
  Cycles t0 = 0;
  bool sender_done = false;
  bool receiver_done = false;
};

sim::Process transfer_sender(sim::Actor& actor, std::vector<VirtAddr> set,
                             std::vector<std::uint8_t> bits,
                             ChannelConfig config, TransferShared* shared) {
  obs::Hub& hub = actor.system().hub();
  auto group = hub.registry().group("channel");
  obs::Counter ones = group.counter("send.ones");
  obs::Counter zeros = group.counter("send.zeros");

  // Warmup eviction well before T0: loads the trojan's versions lines (a
  // cold first '1' costs ~13k instead of ~9k cycles) and puts the monitor
  // line's way into the replacement orbit the steady-state eviction works
  // from. The spy recalibrates after this, right before T0.
  co_await actor.sleep_until(shared->t0 - 2 * config.window);
  co_await evict_two_phase(actor, set);

  // The pass order rotates by one address per '1' sent: under tree-PLRU a
  // FIXED-order fwd+bwd pass can settle into an orbit that never displaces
  // the monitor line (seed-dependent, then deterministic for the whole
  // transfer); rotation costs nothing and provably breaks such orbits
  // within a few sends.
  std::size_t rotation = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Cycles window_start = shared->t0 + i * config.window;
    const Cycles jitter = actor.rng().next_below(config.sync_jitter + 1);
    co_await actor.sleep_until(window_start + jitter);
    if (bits[i] != 0) {
      ones.inc();
      std::vector<VirtAddr> order = set;
      std::rotate(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(
                                      rotation++ % order.size()),
                  order.end());
      co_await evict_two_phase(actor, order);
    } else {
      zeros.inc();
    }
    if (hub.tracing())
      hub.trace({.cycle = actor.now(),
                 .component = obs::Component::kChannel,
                 .core = actor.core().value,
                 .addr = 0,
                 .kind = "send",
                 .outcome = bits[i] != 0 ? "one" : "zero",
                 .value = static_cast<std::int64_t>(i)});
    // bit 0: busy loop for Tsync (the next sleep_until models it)
  }
  shared->sender_done = true;
}

sim::Process transfer_receiver(sim::Actor& actor, VirtAddr monitor,
                               std::size_t bit_count, ChannelConfig config,
                               TransferShared* shared, ChannelResult* result) {
  obs::Hub& hub = actor.system().hub();
  auto group = hub.registry().group("channel");
  obs::Counter probe_hits = group.counter("probe.hits");
  obs::Counter probe_misses = group.counter("probe.misses");

  const Cycles probe_phase =
      std::max(config.window - config.probe_phase_back, config.window / 2);

  // Warmup: establish the versions-hit baseline right before T0.
  AdaptiveClassifier classifier(config.classifier_margin);
  co_await actor.sleep_until(shared->t0 - 8000);
  co_await calibrate_on_hits(actor, monitor, classifier);

  for (std::size_t i = 0; i < bit_count; ++i) {
    const Cycles when = shared->t0 + i * config.window + probe_phase;
    const Cycles jitter = actor.rng().next_below(config.sync_jitter + 1);
    co_await actor.sleep_until(when + jitter);
    const Cycles measured = co_await timed_probe(actor, monitor);
    const bool miss = classifier.is_miss(static_cast<double>(measured));
    (miss ? probe_misses : probe_hits).inc();
    if (hub.tracing())
      hub.trace({.cycle = actor.now(),
                 .component = obs::Component::kChannel,
                 .core = actor.core().value,
                 .addr = monitor.raw,
                 .kind = "probe",
                 .outcome = miss ? "miss" : "hit",
                 .value = static_cast<std::int64_t>(measured)});
    result->received.push_back(miss ? 1 : 0);
    result->probe_times.push_back(static_cast<double>(measured));
    // The probe itself re-primed the monitor's versions line on a miss and
    // refreshed it on a hit — no separate prime step is needed (§5.3).
  }
  shared->receiver_done = true;
}

}  // namespace

std::vector<std::uint8_t> alternating_bits(std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = i % 2;
  return bits;
}

std::vector<std::uint8_t> pattern_100100(std::size_t n) {
  std::vector<std::uint8_t> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (i % 3 == 0) ? 1 : 0;
  return bits;
}

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_below(2));
  return bits;
}

ChannelSetup setup_covert_channel(TestBed& bed, const ChannelConfig& config,
                                  const EvictionSetResult* precomputed) {
  ChannelSetup setup;

  // Phase 1 — trojan recovers an eviction set (Algorithm 1).
  EvictionSetConfig ev_config = config.eviction;
  ev_config.offset_unit = config.offset_unit;
  setup.eviction = precomputed ? *precomputed : find_eviction_set(bed, ev_config);
  MEECC_CHECK_MSG(setup.eviction.eviction_set.size() >= 2,
                  "Algorithm 1 failed to recover an eviction set");

  DiscoveryShared discovery =
      discover_monitor(bed, config, setup.eviction.eviction_set);
  // A retry runs Algorithm 1 again from where the bed now stands; a seed
  // whose first discovery succeeds never reaches it.
  for (int retry = 0; !discovery.found && retry < config.setup_retries;
       ++retry) {
    setup.eviction = find_eviction_set(bed, ev_config);
    MEECC_CHECK_MSG(setup.eviction.eviction_set.size() >= 2,
                    "Algorithm 1 failed to recover an eviction set");
    discovery = discover_monitor(bed, config, setup.eviction.eviction_set);
  }
  setup.monitor_found = discovery.found;
  MEECC_CHECK_MSG(discovery.found, "spy found no monitor address");
  setup.monitor = discovery.monitor;
  return setup;
}

ChannelResult transfer_covert_channel(TestBed& bed, const ChannelConfig& config,
                                      const std::vector<std::uint8_t>& payload,
                                      const ChannelSetup& setup) {
  MEECC_CHECK(!payload.empty());
  MEECC_CHECK(setup.monitor_found);
  ChannelResult result;
  result.sent = payload;
  result.eviction = setup.eviction;
  result.monitor = setup.monitor;
  result.monitor_found = true;

  TransferShared shared;
  const Cycles slack = 2 * config.window + 20000;
  shared.t0 =
      ((bed.scheduler().now() + slack) / config.window + 1) * config.window;
  const Cycles start = bed.scheduler().now();
  bed.scheduler().spawn(transfer_sender(bed.trojan(),
                                        setup.eviction.eviction_set,
                                        payload, config, &shared));
  bed.scheduler().spawn(transfer_receiver(bed.spy(), setup.monitor,
                                          payload.size(), config, &shared,
                                          &result));
  bed.scheduler().run_until_flag(shared.receiver_done);
  result.transfer_cycles = bed.scheduler().now() - start;

  result.bit_errors = 0;
  for (std::size_t i = 0; i < payload.size(); ++i)
    if (result.received[i] != payload[i]) ++result.bit_errors;
  result.error_rate = static_cast<double>(result.bit_errors) /
                      static_cast<double>(payload.size());
  result.kilobytes_per_second =
      bed.system().bytes_per_second(1.0 / static_cast<double>(config.window)) /
      1000.0;
  return result;
}

ChannelResult run_covert_channel(TestBed& bed, const ChannelConfig& config,
                                 const std::vector<std::uint8_t>& payload,
                                 const EvictionSetResult* precomputed) {
  const ChannelSetup setup = setup_covert_channel(bed, config, precomputed);
  // Deferred noise arrives once the channel is live (Fig. 8 scenario).
  bed.start_noise();
  return transfer_covert_channel(bed, config, payload, setup);
}

}  // namespace meecc::channel
