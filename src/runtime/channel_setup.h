// Shared covert-channel setup for experiments that run Algorithm 1 +
// monitor discovery and then measure on the established channel.
//
// The setup never reads measure-phase parameters (timing window, payload),
// so every trial that differs only in those can share one run of it. With
// a sweep-wide SetupCache (runtime/setup_cache.h) the setup runs once per
// setup key — or loads from the on-disk SetupStore — and each trial forks
// or recycles a bed from its snapshot. Snapshots are exact (a fork is the
// donor continuing, counters included), so a shared trial produces the
// same record as one that runs its own setup, which is what happens when
// no cache is installed (--no-reuse-setup, tracing, direct run() calls).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "runtime/bed_pool.h"
#include "runtime/experiment.h"

namespace meecc::runtime {

/// How channel setup ended. A CheckFailure from Algorithm 1 or monitor
/// discovery (a mitigation working, or an unlucky seed) is an outcome,
/// not an error: it is recorded so sharing trials replay it.
struct ChannelSetupOutcome {
  channel::ChannelSetup setup;
  bool ok = false;
  std::string failure;  ///< what() of the CheckFailure when !ok
};

/// Warm channel state: the bed right after setup, plus the outcome.
struct ChannelWarmState {
  channel::TestBedSnapshot bed;
  ChannelSetupOutcome outcome;
};

/// The key naming the warm state a trial at `seed` can share: `family`,
/// the machine seed, and every shared-config param of `spec`. Measure-phase
/// locals ("bits", "window", ...) are not config keys, so they are left out.
std::string warm_key_for(std::string_view family, const TrialSpec& spec,
                         std::uint64_t seed);

/// RAII lease on one trial's TestBed. With an ambient BedPool the bed is
/// recycled: taken from the pool, rewound in place to its snapshot, and
/// parked again on release — after absorbing its counters into the ambient
/// TrialScope, exactly what the fresh path's System destructor does, so
/// per-trial counter totals are identical in both modes. Without a pool
/// (recycling off, tracing, direct run() calls) it is plain construction
/// and destruction.
class TrialBed {
 public:
  /// Bed forked from the warm state's snapshot. The aliasing `snap`
  /// pointer pins the warm state while the bed sits in the pool, and its
  /// address is the recycling identity: a pooled bed is rewound only
  /// against the very snapshot it was forked from.
  TrialBed(const channel::TestBedConfig& config, std::string key,
           const std::shared_ptr<const ChannelWarmState>& warm);

  /// Bed built from scratch, exactly as `TestBed(config)` leaves it. The
  /// first pooled use captures that state for later rewinds.
  TrialBed(const channel::TestBedConfig& config, std::string key);

  ~TrialBed();

  TrialBed(const TrialBed&) = delete;
  TrialBed& operator=(const TrialBed&) = delete;

  channel::TestBed& operator*() { return *entry_.bed; }
  channel::TestBed* operator->() { return entry_.bed.get(); }

 private:
  BedPool* pool_;
  std::string key_;
  PooledBed entry_;
};

/// One trial's channel: a bed at the end of setup plus the setup outcome.
/// Shared (forked from the memoized warm state under `key`) when the trial
/// runs under a SetupCache, run here on the trial's own bed otherwise.
/// `setup_retries` is channel::ChannelConfig::setup_retries; it changes the
/// warm state, so every trial sharing a key must pass the same value.
class ChannelTrial {
 public:
  ChannelTrial(const channel::TestBedConfig& config, const std::string& key,
               int setup_retries = 0);

  channel::TestBed& bed() { return *bed_; }
  const ChannelSetupOutcome& outcome() const { return *outcome_; }
  /// The established channel; rethrows a failed setup's CheckFailure.
  const channel::ChannelSetup& setup() const;

 private:
  std::shared_ptr<const ChannelWarmState> warm_;
  std::optional<TrialBed> leased_;
  std::unique_ptr<channel::TestBed> own_bed_;
  ChannelSetupOutcome own_outcome_;
  channel::TestBed* bed_ = nullptr;
  const ChannelSetupOutcome* outcome_ = nullptr;
};

}  // namespace meecc::runtime
