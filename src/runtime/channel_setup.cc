#include "runtime/channel_setup.h"

#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "obs/scope.h"
#include "runtime/params.h"
#include "runtime/setup_cache.h"
#include "sim/snapshot_io.h"

namespace meecc::runtime {

namespace {

ChannelSetupOutcome run_channel_setup(channel::TestBed& bed,
                                      int setup_retries) {
  ChannelSetupOutcome outcome;
  channel::ChannelConfig config;
  config.setup_retries = setup_retries;
  try {
    outcome.setup = channel::setup_covert_channel(bed, config);
    outcome.ok = true;
  } catch (const CheckFailure& e) {
    outcome.failure = e.what();
  }
  return outcome;
}

/// Builds a bed from `config`, runs channel setup and snapshots the bed.
/// Runs under a detached TrialScope so the donor machine's counters and
/// traces belong to no single trial — forks restore the snapshot's counter
/// baseline instead.
std::shared_ptr<const ChannelWarmState> warm_channel_setup(
    const channel::TestBedConfig& config, int setup_retries) {
  obs::TrialScope shield(nullptr);
  channel::TestBed bed(config);
  ChannelSetupOutcome outcome = run_channel_setup(bed, setup_retries);
  return std::make_shared<const ChannelWarmState>(
      ChannelWarmState{.bed = bed.snapshot(), .outcome = std::move(outcome)});
}

/// Wire codec for ChannelWarmState (the on-disk setup store): the bed
/// snapshot through channel/sim snapshot_io, then the setup outcome. Both
/// directions build a scratch shape System from `config` — cheap next to
/// the Algorithm 1 run the stored state replaces.
std::string encode_warm_state(const channel::TestBedConfig& config,
                              const ChannelWarmState& state) {
  sim::System shape(config.system);
  io::Writer w;
  channel::encode_testbed_snapshot(w, shape, state.bed);
  const auto encode_addrs = [&w](const std::vector<VirtAddr>& addrs) {
    w.u64(addrs.size());
    for (const auto addr : addrs) w.u64(addr.raw);
  };
  const channel::ChannelSetup& setup = state.outcome.setup;
  encode_addrs(setup.eviction.eviction_set);
  encode_addrs(setup.eviction.index_set);
  w.u64(setup.eviction.test_address.raw);
  w.u8(setup.eviction.found_test_address ? 1 : 0);
  w.u8(setup.eviction.done ? 1 : 0);
  w.u64(setup.monitor.raw);
  w.u8(setup.monitor_found ? 1 : 0);
  w.u8(state.outcome.ok ? 1 : 0);
  w.str(state.outcome.failure);
  return w.take();
}

std::shared_ptr<const ChannelWarmState> decode_warm_state(
    const channel::TestBedConfig& config, std::string_view payload) {
  sim::System shape(config.system);
  io::Reader r(payload);
  auto state = std::make_shared<ChannelWarmState>(
      ChannelWarmState{.bed = channel::decode_testbed_snapshot(r, shape),
                       .outcome = {}});
  const auto decode_addrs = [&r](std::vector<VirtAddr>& addrs) {
    addrs.resize(static_cast<std::size_t>(r.count(8)));
    for (auto& addr : addrs) addr = VirtAddr{r.u64()};
  };
  channel::ChannelSetup& setup = state->outcome.setup;
  decode_addrs(setup.eviction.eviction_set);
  decode_addrs(setup.eviction.index_set);
  setup.eviction.test_address = VirtAddr{r.u64()};
  setup.eviction.found_test_address = r.u8() != 0;
  setup.eviction.done = r.u8() != 0;
  setup.monitor = VirtAddr{r.u64()};
  setup.monitor_found = r.u8() != 0;
  state->outcome.ok = r.u8() != 0;
  state->outcome.failure = r.str();
  r.expect_done();
  return state;
}

std::shared_ptr<const ChannelWarmState> memoized_channel_setup(
    const channel::TestBedConfig& config, const std::string& key,
    int setup_retries) {
  return memoized_setup<ChannelWarmState>(
      key, [&] { return warm_channel_setup(config, setup_retries); },
      [&](const ChannelWarmState& state) {
        return encode_warm_state(config, state);
      },
      [&](std::string_view bytes) { return decode_warm_state(config, bytes); });
}

BedPool* ambient_pool() {
  TrialContext* context = TrialContext::current();
  return context != nullptr ? context->bed_pool() : nullptr;
}

bool setup_is_shared() {
  TrialContext* context = TrialContext::current();
  return context != nullptr && context->setup_cache() != nullptr;
}

}  // namespace

std::string warm_key_for(std::string_view family, const TrialSpec& spec,
                         std::uint64_t seed) {
  constexpr std::string_view kSeed = "|seed=";
  const std::string seed_text = std::to_string(seed);
  std::size_t size = family.size() + kSeed.size() + seed_text.size();
  for (const auto& [param, value] : spec.params)
    if (is_config_key(param)) size += 2 + param.size() + value.size();
  std::string key;
  key.reserve(size);  // one allocation per key: this runs on every trial
  key.append(family).append(kSeed).append(seed_text);
  for (const auto& [param, value] : spec.params)
    if (is_config_key(param))
      key.append(1, '|').append(param).append(1, '=').append(value);
  return key;
}

TrialBed::TrialBed(const channel::TestBedConfig& config, std::string key,
                   const std::shared_ptr<const ChannelWarmState>& warm)
    // Forked beds only recycle usefully when the warm state itself is
    // shared (same snapshot across trials); without a SetupCache every
    // trial builds a private warm state and pooling would just churn.
    : pool_(setup_is_shared() ? ambient_pool() : nullptr),
      key_(std::move(key)) {
  const std::shared_ptr<const channel::TestBedSnapshot> snap(warm, &warm->bed);
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

TrialBed::TrialBed(const channel::TestBedConfig& config, std::string key)
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
  if (pool_ != nullptr)
    entry_.snap = std::make_shared<const channel::TestBedSnapshot>(
        entry_.bed->snapshot());
}

TrialBed::~TrialBed() {
  if (!entry_.bed) return;
  if (pool_ == nullptr) {
    entry_.bed.reset();  // the System destructor absorbs the counters
    return;
  }
  if (auto* scope = obs::TrialScope::current())
    scope->absorb(entry_.bed->system().hub().registry());
  pool_->put(std::move(key_), std::move(entry_));
}

ChannelTrial::ChannelTrial(const channel::TestBedConfig& config,
                           const std::string& key, int setup_retries) {
  if (setup_is_shared()) {
    warm_ = memoized_channel_setup(config, key, setup_retries);
    leased_.emplace(config, key + "|trial", warm_);
    bed_ = &**leased_;
    outcome_ = &warm_->outcome;
  } else {
    own_bed_ = std::make_unique<channel::TestBed>(config);
    own_outcome_ = run_channel_setup(*own_bed_, setup_retries);
    bed_ = own_bed_.get();
    outcome_ = &own_outcome_;
  }
}

const channel::ChannelSetup& ChannelTrial::setup() const {
  if (!outcome_->ok) throw CheckFailure(outcome_->failure);
  return outcome_->setup;
}

}  // namespace meecc::runtime
