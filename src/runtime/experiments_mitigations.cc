// Countermeasure studies over the cache-policy layer (cache/policy.h).
//
// Every mitigation here is just a SystemConfig override (mee.cache.*), so a
// study is a sweep, not a code fork:
//   meecc_bench run mitigations --sweep mee.cache.indexing=modulo,keyed
//   meecc_bench run mitigation_rekey
//   meecc_bench run ablation_mitigations   (way-partition fill, §5.5)
//
// Each trial reports three things per policy point: whether Algorithm 1
// still recovers an eviction set, what the channel then delivers
// (bit-rate / error-rate / Shannon capacity), and what the policy costs a
// well-behaved enclave workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "channel/covert_channel.h"
#include "channel/mitigation.h"
#include "channel/testbed.h"
#include "common/bytes.h"
#include "common/check.h"
#include "obs/scope.h"
#include "runtime/bed_pool.h"
#include "runtime/experiments.h"
#include "runtime/params.h"
#include "runtime/registry.h"
#include "runtime/setup_cache.h"
#include "sim/snapshot_io.h"

namespace meecc::runtime {

namespace {

/// Binary entropy, for Shannon capacity of the binary symmetric channel the
/// bit stream approximates: capacity = raw_rate × (1 − H₂(p)). An error
/// rate at or beyond 0.5 means the channel carries nothing.
double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

struct ChannelOutcome {
  bool setup_ok = false;
  std::uint32_t eviction_set_size = 0;
  double error_rate = 1.0;
  double raw_kbps = 0.0;
  double capacity_kbps = 0.0;
  std::uint64_t rekeys = 0;
};

/// Warm channel state at the quiesce boundary between setup and transfer:
/// everything Algorithm 1 + monitor discovery produced, shareable across
/// every trial that differs only in measure-phase parameters (payload
/// bits). Setup failure is part of the state — sharing trials replay the
/// blocked outcome without re-running Algorithm 1.
struct ChannelWarmState {
  channel::TestBedSnapshot bed;
  channel::ChannelSetup setup;
  bool setup_ok = false;
};

/// The key naming the warm state a trial at `seed` can share: machine seed
/// plus every shared-config param (measure-phase locals like "bits" are
/// deliberately excluded).
std::string warm_key_for(const TrialSpec& spec, std::uint64_t seed) {
  std::string key = "mitigation-setup|seed=" + std::to_string(seed);
  for (const auto& [param, value] : spec.params)
    if (is_config_key(param)) key += '|' + param + '=' + value;
  return key;
}

/// Builds a bed from `config`, runs channel setup (Algorithm 1 + beacon
/// discovery), and captures the bed at the quiesce boundary. Runs under a
/// detached TrialScope so the donor machine's counters/traces belong to no
/// single trial — forks restore the snapshot's counter baseline instead.
std::shared_ptr<const ChannelWarmState> warm_channel_setup(
    const channel::TestBedConfig& config) {
  obs::TrialScope shield(nullptr);
  channel::TestBed bed(config);
  channel::ChannelSetup setup;
  bool setup_ok = false;
  try {
    setup = channel::setup_covert_channel(bed, channel::ChannelConfig{});
    setup_ok = true;
  } catch (const CheckFailure&) {
    // Algorithm 1 / monitor discovery could not establish the channel
    // under this policy — exactly the mitigation succeeding. Snapshot the
    // bed anyway so the failure (and its counters) replays cheaply.
  }
  bed.quiesce_environment();
  return std::make_shared<const ChannelWarmState>(ChannelWarmState{
      .bed = bed.snapshot(), .setup = setup, .setup_ok = setup_ok});
}

/// Wire codec for ChannelWarmState (the on-disk setup store): the bed
/// snapshot through channel/sim snapshot_io, then the discovered channel
/// artifacts. Both directions build a scratch shape System from `config` —
/// cheap next to the Algorithm 1 run the stored state replaces.
std::string encode_warm_state(const channel::TestBedConfig& config,
                              const ChannelWarmState& state) {
  sim::System shape(config.system);
  io::Writer w;
  channel::encode_testbed_snapshot(w, shape, state.bed);
  const auto encode_addrs = [&w](const std::vector<VirtAddr>& addrs) {
    w.u64(addrs.size());
    for (const auto addr : addrs) w.u64(addr.raw);
  };
  encode_addrs(state.setup.eviction.eviction_set);
  encode_addrs(state.setup.eviction.index_set);
  w.u64(state.setup.eviction.test_address.raw);
  w.u8(state.setup.eviction.found_test_address ? 1 : 0);
  w.u8(state.setup.eviction.done ? 1 : 0);
  w.u64(state.setup.monitor.raw);
  w.u8(state.setup.monitor_found ? 1 : 0);
  w.u8(state.setup_ok ? 1 : 0);
  return w.take();
}

std::shared_ptr<const ChannelWarmState> decode_warm_state(
    const channel::TestBedConfig& config, std::string_view payload) {
  sim::System shape(config.system);
  io::Reader r(payload);
  auto state = std::make_shared<ChannelWarmState>(
      ChannelWarmState{.bed = channel::decode_testbed_snapshot(r, shape),
                       .setup = {},
                       .setup_ok = false});
  const auto decode_addrs = [&r](std::vector<VirtAddr>& addrs) {
    addrs.resize(static_cast<std::size_t>(r.u64()));
    for (auto& addr : addrs) addr = VirtAddr{r.u64()};
  };
  decode_addrs(state->setup.eviction.eviction_set);
  decode_addrs(state->setup.eviction.index_set);
  state->setup.eviction.test_address = VirtAddr{r.u64()};
  state->setup.eviction.found_test_address = r.u8() != 0;
  state->setup.eviction.done = r.u8() != 0;
  state->setup.monitor = VirtAddr{r.u64()};
  state->setup.monitor_found = r.u8() != 0;
  state->setup_ok = r.u8() != 0;
  r.expect_done();
  return state;
}

/// RAII lease on one trial's TestBed. With an ambient BedPool the bed is
/// recycled: taken from the pool, rewound in place to the snapshot, and
/// parked again on release — after absorbing its counters into the ambient
/// TrialScope, exactly what the fresh path's System destructor does, so
/// per-trial counter totals are identical in both modes. Without a pool
/// (recycling off, tracing, direct run() calls) it degenerates to plain
/// construction and destruction.
class TrialBed {
 public:
  /// Measure bed, forked from the warm state's snapshot. The aliasing
  /// `snap` pointer pins the warm state while the bed sits in the pool,
  /// and its address is the recycling identity: a pooled bed is rewound
  /// only against the very snapshot it was forked from.
  TrialBed(const channel::TestBedConfig& config, std::string key,
           const std::shared_ptr<const ChannelWarmState>& warm)
      : pool_(shared_setup_pool()), key_(std::move(key)) {
    const std::shared_ptr<const channel::TestBedSnapshot> snap(warm,
                                                               &warm->bed);
    if (pool_ != nullptr) {
      PooledBed pooled = pool_->take(key_);
      if (pooled && pooled.snap == snap && pooled.bed->try_reset(*snap)) {
        pool_->note_recycle();
        entry_ = std::move(pooled);
        return;
      }
      if (pooled) BedPool::drop(std::move(pooled));
    }
    entry_.bed = std::make_unique<channel::TestBed>(config, *snap);
    entry_.snap = snap;
  }

  /// Legit-workload bed, built from scratch. BOTH modes cross the
  /// quiesce→respawn boundary (a respawned environment agent is not a
  /// construction no-op), so recycled and fresh runs stay byte-identical;
  /// the first pooled use captures the pristine snapshot between the two
  /// halves of that boundary for later rewinds.
  TrialBed(const channel::TestBedConfig& config, std::string key)
      : pool_(ambient_pool()), key_(std::move(key)) {
    if (pool_ != nullptr) {
      PooledBed pooled = pool_->take(key_);
      if (pooled && pooled.snap != nullptr &&
          pooled.bed->try_reset(*pooled.snap)) {
        pool_->note_recycle();
        entry_ = std::move(pooled);
        return;
      }
      if (pooled) BedPool::drop(std::move(pooled));
    }
    entry_.bed = std::make_unique<channel::TestBed>(config);
    entry_.bed->quiesce_environment();
    if (pool_ != nullptr)
      entry_.snap = std::make_shared<const channel::TestBedSnapshot>(
          entry_.bed->snapshot());
    entry_.bed->respawn_environment();
  }

  ~TrialBed() {
    if (!entry_.bed) return;
    if (pool_ == nullptr) {
      entry_.bed.reset();  // the System destructor absorbs the counters
      return;
    }
    if (auto* scope = obs::TrialScope::current())
      scope->absorb(entry_.bed->system().hub().registry());
    pool_->put(std::move(key_), std::move(entry_));
  }

  TrialBed(const TrialBed&) = delete;
  TrialBed& operator=(const TrialBed&) = delete;

  channel::TestBed& operator*() { return *entry_.bed; }
  channel::TestBed* operator->() { return entry_.bed.get(); }

 private:
  static BedPool* ambient_pool() {
    TrialContext* context = TrialContext::current();
    return context != nullptr ? context->bed_pool() : nullptr;
  }
  /// Measure beds only recycle usefully when the warm state itself is
  /// shared (same snapshot across trials); without a SetupCache every
  /// trial builds a private warm state and pooling would just churn.
  static BedPool* shared_setup_pool() {
    TrialContext* context = TrialContext::current();
    return context != nullptr && context->setup_cache() != nullptr
               ? context->bed_pool()
               : nullptr;
  }

  BedPool* pool_;
  std::string key_;
  PooledBed entry_;
};

/// End-to-end attack attempt (Algorithm 1 + discovery + Algorithm 2) for
/// `spec` with `seed`. The setup phase is fetched through the memoized warm
/// state and the measure phase ALWAYS runs on a fork — with or without an
/// ambient SetupCache the execution path is identical, so snapshot reuse
/// cannot change results.
ChannelOutcome attempt_channel(const TrialSpec& spec, std::uint64_t seed,
                               const std::vector<std::uint8_t>& payload) {
  channel::TestBedConfig config = make_testbed_config(spec);
  config.system.seed = seed;
  const std::string key = warm_key_for(spec, seed);
  const auto warm = memoized_setup<ChannelWarmState>(
      key, [&] { return warm_channel_setup(config); },
      [&](const ChannelWarmState& state) {
        return encode_warm_state(config, state);
      },
      [&](std::string_view bytes) {
        return decode_warm_state(config, bytes);
      });
  TrialBed bed(config, key + "|measure", warm);
  ChannelOutcome outcome;
  if (warm->setup_ok) {
    try {
      // Deferred noise arrives once the channel is live (Fig. 8 scenario).
      bed->start_noise();
      const auto result = channel::transfer_covert_channel(
          *bed, channel::ChannelConfig{}, payload, warm->setup);
      outcome.setup_ok = true;
      outcome.eviction_set_size = result.eviction.associativity();
      outcome.error_rate = result.error_rate;
      outcome.raw_kbps = result.kilobytes_per_second;
      const double p = std::min(result.error_rate, 0.5);
      outcome.capacity_kbps =
          result.kilobytes_per_second * (1.0 - binary_entropy(p));
    } catch (const CheckFailure&) {
      // Transfer collapsed under this policy; report as a failed attempt.
    }
  }
  outcome.rekeys = bed->system().mee().rekeys();
  return outcome;
}

TrialResult run_mitigation_channel(const TrialSpec& spec) {
  const auto payload = channel::alternating_bits(param_u64(spec, "bits", 192));

  // Eviction-set construction success rate: Algorithm 1 end-to-end over a
  // few independent seeds (a randomized index may make it flaky rather than
  // impossible).
  const auto attempts = param_u64(spec, "setup_attempts", 2);
  std::uint64_t setups_ok = 0;
  ChannelOutcome main_outcome;
  for (std::uint64_t i = 0; i < attempts; ++i) {
    const auto outcome = attempt_channel(spec, spec.seed + i, payload);
    if (outcome.setup_ok) ++setups_ok;
    if (i == 0) main_outcome = outcome;
  }

  // What the policy costs a legitimate enclave: random reuse over a working
  // set sized to exactly fill an unmitigated 8-way MEE cache.
  channel::TestBedConfig legit_config = make_testbed_config(spec);
  legit_config.system.seed = spec.seed + 1000;
  TrialBed legit_bed(legit_config,
                     warm_key_for(spec, legit_config.system.seed) + "|legit");
  const auto legit = channel::measure_legit_workload(
      *legit_bed, param_u64(spec, "legit_bytes", 256 * 1024),
      static_cast<int>(param_u64(spec, "legit_samples", 3000)));

  TrialResult out;
  out.metric("setup_ok", main_outcome.setup_ok);
  out.metric("setup_success_rate",
             attempts ? static_cast<double>(setups_ok) /
                            static_cast<double>(attempts)
                      : 0.0);
  out.metric("eviction_set_size",
             static_cast<double>(main_outcome.eviction_set_size));
  out.metric("error_rate", main_outcome.error_rate);
  out.metric("raw_kbps", main_outcome.raw_kbps);
  out.metric("capacity_kbps", main_outcome.capacity_kbps);
  out.metric("rekeys", static_cast<double>(main_outcome.rekeys));
  out.metric("legit_versions_hit_rate", legit.versions_hit_rate);
  out.metric("legit_mean_latency", legit.mean_protected_latency);

  std::ostringstream artifact;
  char line[200];
  std::snprintf(
      line, sizeof line,
      "policy point: channel %s (setup %llu/%llu), capacity %.2f KB/s "
      "(raw %.2f, error %.3f)\n",
      main_outcome.setup_ok
          ? (main_outcome.error_rate > 0.25 ? "garbled" : "works")
          : "blocked at setup",
      static_cast<unsigned long long>(setups_ok),
      static_cast<unsigned long long>(attempts), main_outcome.capacity_kbps,
      main_outcome.raw_kbps, main_outcome.error_rate);
  artifact << line;
  std::snprintf(line, sizeof line,
                "legit cost: versions-hit rate %.3f, mean protected latency "
                "%.0f cycles",
                legit.versions_hit_rate, legit.mean_protected_latency);
  artifact << line;
  if (main_outcome.rekeys > 0)
    artifact << " (" << main_outcome.rekeys << " flush+rekey events)";
  artifact << '\n';
  out.artifact_text = artifact.str();
  return out;
}

}  // namespace

void register_mitigation_experiments() {
  register_experiment(
      {.name = "mitigations",
       .description = "channel capacity and eviction-set recovery vs MEE "
                      "cache indexing policy (CEASER-style keyed index)",
       .paper_ref = "beyond-paper; §5.5 + randomized-cache literature",
       .default_params = {{"functional_crypto", "false"},
                          {"bits", "192"},
                          {"setup_attempts", "2"},
                          {"legit_bytes", "262144"},
                          {"legit_samples", "3000"}},
       .default_sweeps = {{"mee.cache.indexing", "modulo,keyed"}},
       .run = run_mitigation_channel,
       .setup_key = [](const TrialSpec& spec) {
         return warm_key_for(spec, spec.seed);
       }});
  register_experiment(
      {.name = "mitigation_rekey",
       .description = "periodic MEE-cache flush+rekey: channel degradation "
                      "vs legit-workload tax as the period shrinks",
       .paper_ref = "beyond-paper; §5.5 directions",
       .default_params = {{"functional_crypto", "false"},
                          {"bits", "192"},
                          {"setup_attempts", "1"},
                          {"legit_bytes", "262144"},
                          {"legit_samples", "3000"}},
       .default_sweeps = {{"mee.cache.rekey_period", "0,20000,5000,1000"}},
       .run = run_mitigation_channel,
       .setup_key = [](const TrialSpec& spec) {
         return warm_key_for(spec, spec.seed);
       }});
}

}  // namespace meecc::runtime
