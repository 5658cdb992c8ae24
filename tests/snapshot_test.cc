// Snapshot/fork trial execution: fork-vs-fresh equivalence, fork
// independence, RNG fork-order replay, scheduler cancel semantics, the
// coroutine frame arena, and the runner's setup cache + buffered tracing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.h"
#include "channel/covert_channel.h"
#include "channel/mitigation.h"
#include "channel/testbed.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "obs/counters.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "runtime/bed_pool.h"
#include "runtime/campaign.h"
#include "runtime/experiment.h"
#include "runtime/experiments.h"
#include "runtime/registry.h"
#include "runtime/runner.h"
#include "runtime/setup_cache.h"
#include "runtime/sink.h"
#include "runtime/sweep.h"
#include "sim/des.h"
#include "sim/frame_arena.h"
#include "sim/system.h"

namespace meecc {
namespace {

// ---------------------------------------------------------------------------
// System-level fork: RNG stream replay.

TEST(SystemFork, ReplaysRngForkOrder) {
  sim::SystemConfig config;
  config.seed = 7;
  sim::System original(config);
  const sim::SystemSnapshot snap = original.snapshot();
  auto forked = sim::System::fork(config, snap);

  // Every subsequent per-agent stream must come out identical, in order:
  // a fork that consumed extra draws during construction would diverge on
  // the first stream, one that desynchronized later on a later stream.
  for (int stream = 0; stream < 4; ++stream) {
    Rng a = original.fork_rng();
    Rng b = forked->fork_rng();
    for (int draw = 0; draw < 8; ++draw)
      EXPECT_EQ(a.next_u64(), b.next_u64())
          << "stream " << stream << " draw " << draw;
  }
}

// ---------------------------------------------------------------------------
// Registry capture/restore.

TEST(RegistryState, RestoreRewindsPostCaptureActivity) {
  obs::Registry registry;
  obs::Counter early = registry.counter("test", "early");
  early.inc(2);
  const obs::Registry::State state = registry.capture();

  obs::Counter late = registry.counter("test", "late");
  late.inc(5);
  early.inc();

  registry.restore(state);
  EXPECT_EQ(early.value(), 2u);
  // A slot registered after the capture is zeroed, not left dangling at its
  // pre-restore value — otherwise a forked machine would inherit counts
  // from whichever trial happened to run on the donor registry first.
  EXPECT_EQ(late.value(), 0u);
  EXPECT_EQ(obs::snapshot_value(registry.snapshot(), "test.early"), 2u);
  EXPECT_EQ(obs::snapshot_value(registry.snapshot(), "test.late"), 0u);
}

// ---------------------------------------------------------------------------
// FrameArena.

TEST(FrameArena, AmbientScopeRecyclesBlocks) {
  sim::FrameArena arena;
  {
    sim::FrameArena::Scope scope(&arena);
    void* first = sim::FrameArena::allocate_ambient(64);
    ASSERT_NE(first, nullptr);
    EXPECT_GT(arena.bytes_reserved(), 0u);
    EXPECT_EQ(arena.free_blocks(), 0u);

    sim::FrameArena::deallocate(first);
    EXPECT_EQ(arena.free_blocks(), 1u);

    // Same size class -> the freed block is handed straight back.
    void* second = sim::FrameArena::allocate_ambient(64);
    EXPECT_EQ(second, first);
    EXPECT_EQ(arena.free_blocks(), 0u);

    // Oversize blocks bypass the arena even with a scope installed.
    void* big = sim::FrameArena::allocate_ambient(64 * 1024);
    ASSERT_NE(big, nullptr);
    sim::FrameArena::deallocate(big);
    EXPECT_EQ(arena.free_blocks(), 0u);

    sim::FrameArena::deallocate(second);
    EXPECT_EQ(arena.free_blocks(), 1u);
  }
  arena.reset();
  EXPECT_EQ(arena.free_blocks(), 0u);

  // No ambient arena: plain heap round-trip through the same entry points.
  void* heap_block = sim::FrameArena::allocate_ambient(128);
  ASSERT_NE(heap_block, nullptr);
  sim::FrameArena::deallocate(heap_block);
}

sim::Process ticker(sim::Scheduler& sched, int& ticks, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await sim::WakeAt{sched, sched.now() + 10};
    ++ticks;
  }
}

TEST(FrameArena, SchedulerFramesLandInItsArena) {
  sim::Scheduler sched;
  int ticks = 0;
  {
    sim::FrameArena::Scope scope(&sched.arena());
    sched.spawn(ticker(sched, ticks, 3));
  }
  EXPECT_GT(sched.arena().bytes_reserved(), 0u);
  sched.run_to_completion();
  EXPECT_EQ(ticks, 3);
  // The finished agent's frame was parked for reuse, not returned to malloc.
  EXPECT_GT(sched.arena().free_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// Scheduler cancel.

TEST(SchedulerCancel, RemovesAgentAndPreservesSiblings) {
  sim::Scheduler sched;
  int cancelled_ticks = 0;
  int surviving_ticks = 0;
  sim::ProcessHandle doomed = sched.spawn(ticker(sched, cancelled_ticks, 100));
  sched.spawn(ticker(sched, surviving_ticks, 5));
  EXPECT_EQ(sched.live_processes(), 2u);

  EXPECT_TRUE(sched.cancel(doomed));
  EXPECT_FALSE(sched.cancel(doomed));  // stale handle is refused
  EXPECT_EQ(sched.live_processes(), 1u);

  sched.run_to_completion();
  EXPECT_EQ(cancelled_ticks, 0);  // its queued events were drained too
  EXPECT_EQ(surviving_ticks, 5);
  EXPECT_EQ(sched.live_processes(), 0u);
  EXPECT_TRUE(sched.idle());
}

TEST(SchedulerCancel, StaleAfterCompletionIsRefused) {
  sim::Scheduler sched;
  int ticks = 0;
  sim::ProcessHandle handle = sched.spawn(ticker(sched, ticks, 1));
  sched.run_to_completion();
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(sched.cancel(handle));
  EXPECT_FALSE(sched.cancel(sim::ProcessHandle{}));  // null handle
}

// ---------------------------------------------------------------------------
// TestBed fork: observational equivalence and independence.

TEST(TestBedFork, MatchesFreshExecution) {
  channel::TestBedConfig config = channel::default_testbed_config(1234);
  config.noise = channel::NoiseEnv::kMeeStride512;
  config.noise_autostart = false;
  const channel::ChannelConfig channel_config;
  const auto payload = channel::alternating_bits(12);

  // Donor: warm up (Algorithm 1 + monitor discovery), snapshot at the
  // quiesce boundary, then keep running as the "fresh" reference.
  channel::TestBed donor(config);
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(donor, channel_config);
  ASSERT_TRUE(setup.monitor_found);
  donor.quiesce_environment();
  const channel::TestBedSnapshot snap = donor.snapshot();
  donor.respawn_environment();

  obs::CollectingSink fresh_sink;
  donor.system().hub().set_trace_sink(&fresh_sink);
  donor.start_noise();
  const channel::ChannelResult fresh =
      channel::transfer_covert_channel(donor, channel_config, payload, setup);
  donor.system().hub().set_trace_sink(nullptr);
  const obs::CounterSnapshot fresh_counters =
      donor.system().hub().registry().snapshot();

  // Fork: a new bed materialized from the snapshot runs the identical
  // measure phase.
  channel::TestBed forked(config, snap);
  obs::CollectingSink fork_sink;
  forked.system().hub().set_trace_sink(&fork_sink);
  forked.start_noise();
  const channel::ChannelResult replay =
      channel::transfer_covert_channel(forked, channel_config, payload, setup);
  forked.system().hub().set_trace_sink(nullptr);
  const obs::CounterSnapshot fork_counters =
      forked.system().hub().registry().snapshot();

  // Byte-identical golden trace: every cycle, address, and outcome.
  EXPECT_EQ(fresh_sink.events().size(), fork_sink.events().size());
  EXPECT_EQ(fresh_sink.events(), fork_sink.events());
  EXPECT_EQ(fresh.received, replay.received);
  EXPECT_EQ(fresh.bit_errors, replay.bit_errors);
  EXPECT_EQ(fresh.probe_times, replay.probe_times);
  EXPECT_EQ(fresh.transfer_cycles, replay.transfer_cycles);
  // Equal counter totals: the fork restored the donor's baseline, so both
  // machines tell the same setup + measure story.
  EXPECT_EQ(fresh_counters, fork_counters);
}

// Fork-vs-fresh equivalence with the environment's noise autostarted (the
// default bed) rather than started by hand: golden trace, channel result,
// and counter totals (pad cache and mac-verify accounting included).
TEST(TestBedFork, MatchesFreshExecutionWithAutostartedNoise) {
  const channel::TestBedConfig config = channel::default_testbed_config(4321);
  const channel::ChannelConfig channel_config;
  const auto payload = channel::alternating_bits(12);

  channel::TestBed donor(config);
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(donor, channel_config);
  ASSERT_TRUE(setup.monitor_found);
  donor.quiesce_environment();
  const channel::TestBedSnapshot snap = donor.snapshot();
  donor.respawn_environment();

  obs::CollectingSink fresh_sink;
  donor.system().hub().set_trace_sink(&fresh_sink);
  const channel::ChannelResult fresh = channel::transfer_covert_channel(
      donor, channel_config, payload, setup);
  donor.system().hub().set_trace_sink(nullptr);

  channel::TestBed forked(config, snap);
  obs::CollectingSink fork_sink;
  forked.system().hub().set_trace_sink(&fork_sink);
  const channel::ChannelResult replay = channel::transfer_covert_channel(
      forked, channel_config, payload, setup);
  forked.system().hub().set_trace_sink(nullptr);

  EXPECT_EQ(fresh_sink.events(), fork_sink.events());
  EXPECT_EQ(fresh.received, replay.received);
  EXPECT_EQ(fresh.probe_times, replay.probe_times);
  EXPECT_EQ(donor.system().hub().registry().snapshot(),
            forked.system().hub().registry().snapshot());
}

TEST(TestBedFork, ForksFromOneSnapshotAreIndependent) {
  const channel::TestBedConfig config = channel::default_testbed_config(2026);
  const channel::ChannelConfig channel_config;
  const auto payload = channel::alternating_bits(12);

  channel::TestBed donor(config);
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(donor, channel_config);
  ASSERT_TRUE(setup.monitor_found);
  donor.quiesce_environment();
  const channel::TestBedSnapshot snap = donor.snapshot();

  channel::TestBed first(config, snap);
  obs::CollectingSink first_sink;
  first.system().hub().set_trace_sink(&first_sink);
  const channel::ChannelResult first_result =
      channel::transfer_covert_channel(first, channel_config, payload, setup);

  // A second fork transfers a different payload, mutating everything the
  // snapshot could possibly alias: DRAM lines, version counters, caches.
  channel::TestBed diverged(config, snap);
  const channel::ChannelResult diverged_result = channel::transfer_covert_channel(
      diverged, channel_config, channel::pattern_100100(12), setup);
  EXPECT_NE(diverged_result.sent, first_result.sent);

  // A third fork taken afterwards still replays the first run exactly — no
  // state leaked through the shared copy-on-write image.
  channel::TestBed second(config, snap);
  obs::CollectingSink second_sink;
  second.system().hub().set_trace_sink(&second_sink);
  const channel::ChannelResult second_result =
      channel::transfer_covert_channel(second, channel_config, payload, setup);

  EXPECT_EQ(first_sink.events(), second_sink.events());
  EXPECT_EQ(first_result.received, second_result.received);
  EXPECT_EQ(first_result.probe_times, second_result.probe_times);
}

// ---------------------------------------------------------------------------
// SetupCache + runner integration.

TEST(SetupCache, BuildsOncePerKeyAndPropagatesFailure) {
  runtime::SetupCache cache;
  int builds = 0;
  const auto value_builder = [&]() -> std::shared_ptr<const void> {
    ++builds;
    return std::make_shared<const int>(41);
  };
  const auto a = cache.get_or_build("k1", value_builder);
  const auto b = cache.get_or_build("k1", value_builder);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.memory_hits(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);

  // A throwing builder fails every sharing caller and is never retried.
  int failing_calls = 0;
  const auto failing = [&]() -> std::shared_ptr<const void> {
    ++failing_calls;
    throw std::runtime_error("setup exploded");
  };
  EXPECT_THROW(cache.get_or_build("k2", failing), std::runtime_error);
  EXPECT_THROW(cache.get_or_build("k2", failing), std::runtime_error);
  EXPECT_EQ(failing_calls, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SetupCache, MemoizedSetupWithoutContextBuildsFresh) {
  int builds = 0;
  const auto builder = [&]() -> std::shared_ptr<const int> {
    ++builds;
    return std::make_shared<const int>(7);
  };
  ASSERT_EQ(runtime::TrialContext::current(), nullptr);
  EXPECT_EQ(*runtime::memoized_setup<int>("key", builder), 7);
  EXPECT_EQ(*runtime::memoized_setup<int>("key", builder), 7);
  EXPECT_EQ(builds, 2);  // no ambient cache -> nothing memoized
}

runtime::Experiment toy_setup_experiment(std::atomic<int>& builds) {
  runtime::Experiment exp;
  exp.name = "toy_setup";
  exp.setup_key = [](const runtime::TrialSpec& spec) {
    return "toy_setup|seed=" + std::to_string(spec.seed);
  };
  exp.run = [&builds](const runtime::TrialSpec& spec) {
    const auto warm = runtime::memoized_setup<std::uint64_t>(
        "toy_setup|seed=" + std::to_string(spec.seed),
        [&]() -> std::shared_ptr<const std::uint64_t> {
          builds.fetch_add(1);
          Rng rng(spec.seed);
          return std::make_shared<const std::uint64_t>(rng.next_u64());
        });
    runtime::TrialResult result;
    result.metric("warm_mod", static_cast<double>(*warm % 100003));
    result.metric("trial", static_cast<double>(spec.trial_index));
    return result;
  };
  return exp;
}

std::vector<runtime::TrialSpec> toy_trials(std::size_t count) {
  std::vector<runtime::TrialSpec> trials;
  for (std::size_t i = 0; i < count; ++i)
    trials.push_back(runtime::TrialSpec{
        .experiment = "toy", .trial_index = i, .seed = 100 + i % 2, .params = {}});
  return trials;
}

TEST(Runner, SetupReuseSharesStateAndKeepsRecordsIdentical) {
  std::atomic<int> builds{0};
  const runtime::Experiment exp = toy_setup_experiment(builds);
  const std::vector<runtime::TrialSpec> trials = toy_trials(6);

  runtime::SetupStats reuse_stats;
  runtime::RunnerConfig reuse_config;
  reuse_config.jobs = 2;
  const std::vector<runtime::TrialRecord> reused =
      runtime::run_trials(exp, trials, reuse_config, &reuse_stats);
  EXPECT_EQ(builds.load(), 2);  // one build per distinct seed
  EXPECT_EQ(reuse_stats.builds, 2u);
  EXPECT_EQ(reuse_stats.memory_hits, 4u);
  EXPECT_EQ(reuse_stats.disk_hits, 0u);

  builds = 0;
  runtime::SetupStats fresh_stats;
  runtime::RunnerConfig fresh_config;
  fresh_config.jobs = 2;
  fresh_config.reuse_setup = false;
  const std::vector<runtime::TrialRecord> fresh =
      runtime::run_trials(exp, trials, fresh_config, &fresh_stats);
  EXPECT_EQ(builds.load(), 6);  // every trial built its own
  EXPECT_EQ(fresh_stats.builds, 0u);
  EXPECT_EQ(fresh_stats.memory_hits, 0u);
  EXPECT_EQ(fresh_stats.disk_hits, 0u);

  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_TRUE(reused[i].ok);
    EXPECT_TRUE(fresh[i].ok);
    EXPECT_EQ(reused[i].result.metrics, fresh[i].result.metrics) << "trial " << i;
  }
}

TEST(Runner, ParallelTraceBufferingMatchesSerialOrder) {
  runtime::Experiment exp;
  exp.name = "toy_trace";
  exp.run = [](const runtime::TrialSpec& spec) {
    // Later trials finish first under jobs>1, scrambling completion order.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(8 - spec.trial_index));
    if (obs::TrialScope* scope = obs::TrialScope::current();
        scope != nullptr && scope->trace_sink() != nullptr) {
      for (std::int64_t i = 0; i < 3; ++i) {
        obs::TraceEvent event;
        event.cycle = spec.seed * 100 + static_cast<Cycles>(i);
        event.component = obs::Component::kChannel;
        event.addr = spec.trial_index;
        event.kind = "toy";
        event.outcome = "ok";
        event.value = i;
        scope->trace_sink()->emit(event);
      }
    }
    runtime::TrialResult result;
    result.metric("seed", static_cast<double>(spec.seed));
    return result;
  };
  std::vector<runtime::TrialSpec> trials;
  for (std::size_t i = 0; i < 8; ++i)
    trials.push_back(runtime::TrialSpec{
        .experiment = "toy_trace", .trial_index = i, .seed = 500 + i, .params = {}});

  obs::CollectingSink serial_sink;
  runtime::RunnerConfig serial_config;
  serial_config.jobs = 1;
  serial_config.trace_sink = &serial_sink;
  runtime::run_trials(exp, trials, serial_config);

  obs::CollectingSink parallel_sink;
  runtime::RunnerConfig parallel_config;
  parallel_config.jobs = 4;
  parallel_config.trace_sink = &parallel_sink;
  runtime::run_trials(exp, trials, parallel_config);

  EXPECT_EQ(serial_sink.events().size(), 24u);
  EXPECT_EQ(serial_sink.events(), parallel_sink.events());
}

// ---------------------------------------------------------------------------
// Bed recycling: a rewound TestBed must be indistinguishable from a fresh
// fork, and the pool's churn paths must be memory-safe.

// One fork runs the measure phase, is rewound with try_reset(), and runs it
// again: golden trace, channel result, and counter totals must all match the
// first pass exactly — the recycled-System contract the runner relies on.
// The MEE's pad caches are part of the restored state.
TEST(TestBedRecycle, RewoundBedMatchesItsFirstRun) {
  channel::TestBedConfig config = channel::default_testbed_config(77);
  config.noise_autostart = false;
  const channel::ChannelConfig channel_config;
  const auto payload = channel::alternating_bits(10);

  channel::TestBed donor(config);
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(donor, channel_config);
  ASSERT_TRUE(setup.monitor_found);
  donor.quiesce_environment();
  const channel::TestBedSnapshot snap = donor.snapshot();

  channel::TestBed bed(config, snap);
  obs::CollectingSink first_sink;
  bed.system().hub().set_trace_sink(&first_sink);
  bed.start_noise();
  const channel::ChannelResult first =
      channel::transfer_covert_channel(bed, channel_config, payload, setup);
  bed.system().hub().set_trace_sink(nullptr);
  const obs::CounterSnapshot first_counters =
      bed.system().hub().registry().snapshot();

  ASSERT_TRUE(bed.try_reset(snap));
  obs::CollectingSink second_sink;
  bed.system().hub().set_trace_sink(&second_sink);
  bed.start_noise();
  const channel::ChannelResult second =
      channel::transfer_covert_channel(bed, channel_config, payload, setup);
  bed.system().hub().set_trace_sink(nullptr);

  EXPECT_EQ(first_sink.events(), second_sink.events());
  EXPECT_EQ(first.received, second.received);
  EXPECT_EQ(first.bit_errors, second.bit_errors);
  EXPECT_EQ(first.probe_times, second.probe_times);
  EXPECT_EQ(first.transfer_cycles, second.transfer_cycles);
  EXPECT_EQ(first_counters, bed.system().hub().registry().snapshot());
}

// The merged JSONL stream is the sweep's observable: it must come out
// byte-identical whatever the jobs count, the shard split, the recycling
// mode, or whether the bytes travel the in-memory path (write_jsonl of the
// returned records) or the streaming commit pipeline — the acceptance
// contract of the trial-throughput engine. Shard slices reuse the
// campaign's range arithmetic, so the concatenation in shard order is
// exactly the unsharded stream.
TEST(Runner, MergedJsonlByteIdenticalAcrossJobsShardsAndRecycling) {
  runtime::register_builtin_experiments();
  const runtime::Experiment& experiment =
      runtime::get_experiment("mitigations");
  runtime::SweepSpec spec;
  spec.sets = {{"mee.cache.indexing", "modulo"},
               {"setup_attempts", "1"},
               {"legit_bytes", "8192"},
               {"legit_samples", "100"}};
  spec.axes = {{"bits", {"4", "5", "6", "7", "8", "9"}}};
  spec.seeds = 1;
  const std::vector<runtime::TrialSpec> trials =
      runtime::expand_sweep(experiment, spec);

  const auto merged_jsonl = [&](unsigned jobs, unsigned shard_count,
                                bool recycle, bool streaming = false) {
    std::ostringstream out;
    runtime::JsonlResultStream stream(out);
    for (unsigned index = 1; index <= shard_count; ++index) {
      const runtime::ShardRange range = runtime::shard_range(
          trials.size(), runtime::ShardSpec{index, shard_count});
      const std::vector<runtime::TrialSpec> slice(
          trials.begin() + static_cast<std::ptrdiff_t>(range.begin),
          trials.begin() + static_cast<std::ptrdiff_t>(range.end));
      runtime::RunnerConfig config;
      config.jobs = jobs;
      config.recycle_systems = recycle;
      if (streaming) {
        config.stream = &stream;
        config.keep_records = false;
      }
      const std::vector<runtime::TrialRecord> records =
          runtime::run_trials(experiment, slice, config);
      if (!streaming) runtime::write_jsonl(out, records);
    }
    return out.str();
  };

  const std::string reference = merged_jsonl(1, 1, false);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, merged_jsonl(1, 1, true)) << "jobs=1 recycle";
  EXPECT_EQ(reference, merged_jsonl(4, 1, true)) << "jobs=4 recycle";
  EXPECT_EQ(reference, merged_jsonl(1, 3, true)) << "3 shards recycle";
  EXPECT_EQ(reference, merged_jsonl(4, 3, true)) << "jobs=4, 3 shards";
  EXPECT_EQ(reference, merged_jsonl(1, 1, true, true)) << "jobs=1 streaming";
  EXPECT_EQ(reference, merged_jsonl(4, 1, true, true)) << "jobs=4 streaming";
  EXPECT_EQ(reference, merged_jsonl(4, 3, true, true))
      << "jobs=4, 3 shards, streaming";
}

// Pool churn: more keys than the pool cap, so every round evicts parked
// beds, discards failed rewinds, and recycles survivors that then run real
// work. The point is the ASan/LSan tier: park/evict/drop must neither leak
// a bed nor leave a dangling snapshot reference.
TEST(BedPool, RecycleEvictionChurnIsMemorySafe) {
  constexpr int kKeys = 8;  // pool cap is 6: guarantees evictions
  std::vector<channel::TestBedConfig> configs;
  std::vector<std::shared_ptr<const channel::TestBedSnapshot>> snaps;
  for (int key = 0; key < kKeys; ++key) {
    configs.push_back(channel::default_testbed_config(9000 + key));
    configs.back().noise_autostart = false;
    channel::TestBed donor(configs.back());
    donor.quiesce_environment();
    snaps.push_back(
        std::make_shared<const channel::TestBedSnapshot>(donor.snapshot()));
  }

  runtime::BedPool pool;
  const auto cycle = [&](int key) {
    const std::string pool_key = "bed:" + std::to_string(key);
    runtime::PooledBed entry = pool.take(pool_key);
    if (entry && entry.snap == snaps[static_cast<std::size_t>(key)] &&
        entry.bed->try_reset(*entry.snap)) {
      pool.note_recycle();
    } else {
      if (entry) runtime::BedPool::drop(std::move(entry));
      entry.bed = std::make_unique<channel::TestBed>(
          configs[static_cast<std::size_t>(key)],
          *snaps[static_cast<std::size_t>(key)]);
      entry.snap = snaps[static_cast<std::size_t>(key)];
    }
    (void)channel::measure_legit_workload(*entry.bed, 4096, 50);
    pool.put(pool_key, std::move(entry));
  };

  // Thrash phase: round-robin over more keys than the cap, so every take
  // misses and every put evicts the least-recently-parked bed.
  for (int round = 0; round < 2; ++round)
    for (int key = 0; key < kKeys; ++key) cycle(key);
  EXPECT_LE(pool.size(), 6u);
  EXPECT_EQ(pool.recycles(), 0u);  // LRU thrash: nothing survives to reuse

  // Hit phase: a working set that fits the cap, so parked beds survive and
  // every subsequent round rewinds them in place.
  for (int round = 0; round < 3; ++round)
    for (int key = 0; key < 4; ++key) cycle(key);
  EXPECT_GE(pool.recycles(), 8u);  // 4 keys x rounds 2..3 all recycle
}

// ---------------------------------------------------------------------------
// Hierarchy dirty-set rewind.

// Re-importing the same State image must land on exactly the bytes a full
// copy produces, whether the O(touched) rewind runs or the tracking was
// widened (flush_all) and the import falls back to full copies. Equality is
// checked on the snapshot wire encoding, which covers every mutable field.
TEST(HierarchyState, FastReimportMatchesFullCopy) {
  cache::HierarchyConfig config;
  config.llc.size_bytes = 256 * 1024;  // small planes keep the test quick
  const auto encode = [](const cache::Hierarchy& h) {
    io::Writer w;
    for (unsigned c = 0; c < h.core_count(); ++c) {
      h.l1(CoreId{c}).encode_state(w);
      h.l2(CoreId{c}).encode_state(w);
    }
    h.llc().encode_state(w);
    return w.take();
  };
  const auto touch = [](cache::Hierarchy& h, std::uint64_t salt) {
    Rng rng(salt);
    for (int i = 0; i < 2000; ++i)
      h.access(CoreId{static_cast<unsigned>(i & 1)},
               PhysAddr{(rng.next_u64() % (1 << 22)) & ~std::uint64_t{63}});
    for (int i = 0; i < 64; ++i)
      h.clflush(PhysAddr{static_cast<std::uint64_t>(i) * 64});
  };

  cache::Hierarchy live(config, 2, Rng(11));
  touch(live, 1);
  const cache::Hierarchy::State state = live.export_state();
  ASSERT_NE(state.image_id, 0u);

  // Reference image: a sibling hierarchy that full-copies the state.
  cache::Hierarchy reference(config, 2, Rng(11));
  reference.import_state(state);
  const std::string want = encode(reference);

  touch(live, 2);
  live.import_state(state);  // first import of this image: full copy
  EXPECT_EQ(encode(live), want);

  touch(live, 3);
  live.import_state(state);  // same image again: O(touched) rewind
  EXPECT_EQ(encode(live), want);

  // Widened tracking (flush_all touches everything) must fall back to the
  // full-copy path and still land on the image.
  touch(live, 4);
  live.flush_all();
  live.import_state(state);
  EXPECT_EQ(encode(live), want);
}

}  // namespace
}  // namespace meecc
