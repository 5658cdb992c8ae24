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

  const auto dropped = sched.cancel(doomed);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->when, 0u);  // its first step, not yet dispatched
  EXPECT_FALSE(sched.cancel(doomed).has_value());  // stale handle is refused
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
  EXPECT_FALSE(sched.cancel(handle).has_value());
  EXPECT_FALSE(sched.cancel(sim::ProcessHandle{}).has_value());  // null handle
}

// ---------------------------------------------------------------------------
// TestBed fork: a fork is the donor continuing, with no boundary.

/// What a bed does from some point on: every trace event it emits and its
/// whole counter registry at the end.
struct Continuation {
  std::vector<obs::TraceEvent> events;
  obs::CounterSnapshot counters;
  channel::ChannelResult result;
};

/// Runs the rest of a channel trial on `bed` (noise start + transfer).
Continuation continue_channel(channel::TestBed& bed,
                              const channel::ChannelSetup& setup,
                              const std::vector<std::uint8_t>& payload) {
  Continuation out;
  obs::CollectingSink sink;
  bed.system().hub().set_trace_sink(&sink);
  bed.start_noise();
  out.result = channel::transfer_covert_channel(
      bed, channel::ChannelConfig{}, payload, setup);
  bed.system().hub().set_trace_sink(nullptr);
  out.events = sink.events();
  out.counters = bed.system().hub().registry().snapshot();
  return out;
}

void expect_same(const Continuation& want, const Continuation& got) {
  EXPECT_EQ(want.events.size(), got.events.size());
  EXPECT_EQ(want.events, got.events);
  EXPECT_EQ(want.counters, got.counters);
  EXPECT_EQ(want.result.received, got.result.received);
  EXPECT_EQ(want.result.probe_times, got.result.probe_times);
  EXPECT_EQ(want.result.transfer_cycles, got.result.transfer_cycles);
}

/// Setup then transfer on three beds: one never snapshotted (the fresh
/// path), a donor that is snapshotted after setup and keeps going, and a
/// fork of that snapshot. All three must tell one story — trace events
/// and the whole counter registry, des.spawned and des.scheduled included.
void check_fork_is_donor_continuing(const channel::TestBedConfig& config) {
  const auto payload = channel::alternating_bits(12);

  channel::TestBed fresh(config);
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(fresh, channel::ChannelConfig{});
  ASSERT_TRUE(setup.monitor_found);
  const Continuation want = continue_channel(fresh, setup, payload);

  channel::TestBed donor(config);
  ASSERT_EQ(channel::setup_covert_channel(donor, channel::ChannelConfig{})
                .monitor.raw,
            setup.monitor.raw);
  const channel::TestBedSnapshot snap = donor.snapshot();
  ASSERT_FALSE(snap.agents.empty());

  channel::TestBed forked(config, snap);
  expect_same(want, continue_channel(forked, setup, payload));
  expect_same(want, continue_channel(donor, setup, payload));
}

TEST(TestBedFork, IsTheDonorContinuingWithDeferredNoise) {
  channel::TestBedConfig config = channel::default_testbed_config(1234);
  config.noise = channel::NoiseEnv::kMeeStride512;
  config.noise_autostart = false;
  check_fork_is_donor_continuing(config);
}

// Autostarted noise runs through Algorithm 1 as well. (Under autostarted
// MEE stride noise Algorithm 1 fails, so the stressor stands in; the
// stride walker is covered live above and step by step below.)
TEST(TestBedFork, IsTheDonorContinuingWithAutostartedNoise) {
  channel::TestBedConfig config = channel::default_testbed_config(4321);
  check_fork_is_donor_continuing(config);
  config.noise = channel::NoiseEnv::kMemoryStress;
  check_fork_is_donor_continuing(config);
}

/// Steps an environment-only bed until `pick` finds the agent of `kind`
/// parked on `op` in a (non-perturbing) snapshot; returns the step count.
std::size_t steps_until_parked(channel::TestBed& bed,
                               channel::ParkedAgent::Kind kind,
                               sim::AgentCursor::Op op,
                               channel::TestBedSnapshot* snap) {
  for (std::size_t steps = 0; steps < 20000; ++steps) {
    *snap = bed.snapshot();
    for (const channel::ParkedAgent& agent : snap->agents)
      if (agent.kind == kind && agent.cursor.op == op) return steps;
    EXPECT_TRUE(bed.scheduler().step());
  }
  ADD_FAILURE() << "agent never parked on the requested op";
  return 0;
}

/// Trace events and counters of `bed` over its next `steps` dispatches.
Continuation run_steps(channel::TestBed& bed, std::size_t steps) {
  Continuation out;
  obs::CollectingSink sink;
  bed.system().hub().set_trace_sink(&sink);
  for (std::size_t i = 0; i < steps; ++i) EXPECT_TRUE(bed.scheduler().step());
  bed.system().hub().set_trace_sink(nullptr);
  out.events = sink.events();
  out.counters = bed.system().hub().registry().snapshot();
  return out;
}

// Each environment agent captured mid-read, mid-flush and asleep: the fork
// and the donor continue exactly like a bed stepped the same number of
// times that was never snapshotted.
TEST(TestBedFork, CapturesEveryAgentInEveryLoopState) {
  using Kind = channel::ParkedAgent::Kind;
  using Op = sim::AgentCursor::Op;
  struct Case {
    channel::NoiseEnv noise;
    Kind kind;
  };
  const Case cases[] = {{channel::NoiseEnv::kNone, Kind::kBackground},
                        {channel::NoiseEnv::kMemoryStress, Kind::kNoise},
                        {channel::NoiseEnv::kMeeStride512, Kind::kNoise},
                        {channel::NoiseEnv::kMeeStride4K, Kind::kNoise}};
  constexpr std::size_t kAfter = 400;
  for (const Case& c : cases) {
    for (const Op op : {Op::kRead, Op::kFlush, Op::kSleep}) {
      SCOPED_TRACE(std::string(channel::to_token(c.noise)) + " op " +
                   std::to_string(static_cast<int>(op)));
      channel::TestBedConfig config = channel::default_testbed_config(31);
      config.noise = c.noise;
      config.background_mean_gap = 900;  // many background loops per test

      channel::TestBed donor(config);
      channel::TestBedSnapshot snap;
      const std::size_t steps = steps_until_parked(donor, c.kind, op, &snap);

      channel::TestBed fresh(config);
      for (std::size_t i = 0; i < steps; ++i)
        ASSERT_TRUE(fresh.scheduler().step());
      const Continuation want = run_steps(fresh, kAfter);

      channel::TestBed forked(config, snap);
      const Continuation from_fork = run_steps(forked, kAfter);
      EXPECT_EQ(want.events, from_fork.events);
      EXPECT_EQ(want.counters, from_fork.counters);
      const Continuation from_donor = run_steps(donor, kAfter);
      EXPECT_EQ(want.events, from_donor.events);
      EXPECT_EQ(want.counters, from_donor.counters);

      // A recycled bed rewound onto the snapshot continues the same way.
      ASSERT_TRUE(forked.try_reset(snap));
      const Continuation rewound = run_steps(forked, kAfter);
      EXPECT_EQ(want.events, rewound.events);
      EXPECT_EQ(want.counters, rewound.counters);
    }
  }
}

// restart_environment() is the explicit boundary: cancelled agents come
// back as fresh spawns, visible in des.spawned.
TEST(TestBed, RestartEnvironmentRespawnsTheAgents) {
  channel::TestBedConfig config = channel::default_testbed_config(5);
  config.noise = channel::NoiseEnv::kMeeStride512;
  channel::TestBed bed(config);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(bed.scheduler().step());
  const auto spawned = [&bed] {
    return obs::snapshot_value(bed.system().hub().registry().snapshot(),
                               "des.spawned");
  };
  const std::uint64_t before = spawned();
  bed.restart_environment();
  EXPECT_EQ(spawned(), before + 2);
  EXPECT_EQ(bed.scheduler().live_processes(), 2u);
  (void)bed.snapshot();  // a snapshot is not a boundary
  EXPECT_EQ(spawned(), before + 2);
  EXPECT_EQ(bed.scheduler().live_processes(), 2u);
}

TEST(TestBedFork, ForksFromOneSnapshotAreIndependent) {
  const channel::TestBedConfig config = channel::default_testbed_config(2026);
  const channel::ChannelConfig channel_config;
  const auto payload = channel::alternating_bits(12);

  channel::TestBed donor(config);
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(donor, channel_config);
  ASSERT_TRUE(setup.monitor_found);
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
      if (streaming) config.stream = &stream;
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
// Sparse cache images.

std::string encode_hierarchy(const cache::Hierarchy& h) {
  io::Writer w;
  const cache::Hierarchy::State state = h.export_state();
  for (unsigned c = 0; c < h.core_count(); ++c) {
    cache::encode_cache_image(w, *state.l1[c]);
    cache::encode_cache_image(w, *state.l2[c]);
  }
  cache::encode_cache_image(w, *state.llc);
  return w.take();
}

void touch_hierarchy(cache::Hierarchy& h, std::uint64_t salt) {
  Rng rng(salt);
  for (int i = 0; i < 2000; ++i)
    h.access(CoreId{static_cast<unsigned>(i & 1)},
             PhysAddr{(rng.next_u64() % (1 << 22)) & ~std::uint64_t{63}});
  for (int i = 0; i < 64; ++i)
    h.clflush(PhysAddr{static_cast<std::uint64_t>(i) * 64});
}

// Whatever a hierarchy did since — more accesses, a flush_all, importing a
// different image — importing a state lands on exactly the bytes a
// freshly built hierarchy reaches by importing it, whether the import
// rewinds the touched sets (same image again) or starts from another one.
TEST(HierarchyState, ImportLandsOnTheImageFromAnyStartingPoint) {
  cache::HierarchyConfig config;
  config.llc.size_bytes = 256 * 1024;  // small planes keep the test quick
  cache::Hierarchy live(config, 2, Rng(11));
  touch_hierarchy(live, 1);
  const cache::Hierarchy::State state = live.export_state();
  touch_hierarchy(live, 9);
  const cache::Hierarchy::State other = live.export_state();

  cache::Hierarchy reference(config, 2, Rng(11));
  reference.import_state(state);
  const std::string want = encode_hierarchy(reference);
  // Untouched sets are left out of the image.
  EXPECT_LT(encode_hierarchy(cache::Hierarchy(config, 2, Rng(11))).size(),
            want.size());

  touch_hierarchy(live, 2);
  live.import_state(state);  // from an unrelated starting point
  EXPECT_EQ(encode_hierarchy(live), want);
  touch_hierarchy(live, 3);
  live.import_state(state);  // same image again: rewind touched sets
  EXPECT_EQ(encode_hierarchy(live), want);
  touch_hierarchy(live, 4);
  live.flush_all();
  live.import_state(state);
  EXPECT_EQ(encode_hierarchy(live), want);
  live.import_state(other);  // hop to another image and back
  touch_hierarchy(live, 5);
  live.import_state(state);
  EXPECT_EQ(encode_hierarchy(live), want);
}

// An image lists only the sets that differ from a freshly built cache, and
// survives the wire: encode, decode against a same-shape cache, restore
// into a fresh cache, capture again — the bytes are unchanged.
TEST(CacheImage, SparseWireRoundTrip) {
  for (const char* replacement : {"tree-plru", "lru"}) {
    SCOPED_TRACE(replacement);
    cache::PolicyConfig policy;
    policy.replacement = replacement;
    policy.indexing = "keyed";
    const cache::Geometry geometry{.size_bytes = 64 * 1024, .ways = 8};
    cache::SetAssocCache donor(geometry, policy, Rng(3));
    for (std::uint64_t line = 0; line < 3000; ++line)
      donor.access(PhysAddr{line * 64 * 13});
    donor.invalidate(PhysAddr{0});
    donor.rekey();  // flush + new key: the key must ride along
    for (std::uint64_t line = 0; line < 10; ++line)
      donor.access(PhysAddr{line * 64 * 7});
    ASSERT_GT(donor.stats().evictions, 0u);
    const cache::CacheImagePtr image = donor.capture();
    // Tree-PLRU images list only sets that differ from a fresh cache;
    // other policies list every set.
    const bool sparse = std::string(replacement) == "tree-plru";
    EXPECT_EQ(cache::SetAssocCache(geometry, policy, Rng(3)).capture()->rows.size(),
              sparse ? 0u : geometry.sets());
    EXPECT_EQ(image->rows.size(), geometry.sets());

    io::Writer w;
    cache::encode_cache_image(w, *image);
    const cache::SetAssocCache shape(geometry, policy, Rng(3));
    io::Reader r(w.data());
    const cache::CacheImagePtr decoded = shape.decode_image(r);
    r.expect_done();

    cache::SetAssocCache fresh(geometry, policy, Rng(3));
    fresh.restore(decoded);
    io::Writer again;
    cache::encode_cache_image(again, *fresh.capture());
    EXPECT_EQ(again.data(), w.data());
    // The restored cache itself, not just its image, equals the donor.
    EXPECT_EQ(fresh.evictions_per_set(), donor.evictions_per_set());
    for (std::uint64_t set = 0; set < geometry.sets(); ++set)
      EXPECT_EQ(fresh.resident_lines(set), donor.resident_lines(set));
    EXPECT_EQ(fresh.stats().hits, donor.stats().hits);
    EXPECT_EQ(fresh.stats().evictions, donor.stats().evictions);
  }
}

// A set can differ from a fresh one by its eviction tally alone (emptied,
// PLRU word back at zero); its row must still be captured.
TEST(CacheImage, KeepsASetWhoseOnlyTraceIsItsEvictionTally) {
  const cache::Geometry geometry{.size_bytes = 4 * 2 * 64, .ways = 2};  // 4 sets
  cache::SetAssocCache donor(geometry, cache::ReplacementKind::kTreePlru,
                             Rng(1));
  const auto line = [](std::uint64_t i) { return PhysAddr{i * 4 * 64}; };
  for (std::uint64_t i = 0; i < 3; ++i) donor.access(line(i));  // one eviction
  for (const PhysAddr resident : donor.resident_lines(0))
    if (resident != line(2)) donor.invalidate(resident);
  donor.invalidate(line(2));
  ASSERT_EQ(donor.occupancy(0), 0u);
  ASSERT_EQ(donor.evictions_per_set()[0], 1u);

  cache::SetAssocCache fresh(geometry, cache::ReplacementKind::kTreePlru,
                             Rng(1));
  fresh.restore(donor.capture());
  EXPECT_EQ(fresh.evictions_per_set(), donor.evictions_per_set());
}

}  // namespace
}  // namespace meecc
