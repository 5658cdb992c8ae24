#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "obs/hub.h"
#include "obs/trace.h"
#include "sgx/enclave.h"
#include "sim/actor.h"
#include "sim/des.h"
#include "sim/noise.h"
#include "sim/system.h"
#include "sim/timer.h"

namespace meecc::sim {
namespace {

SystemConfig small_system_config(std::uint64_t seed = 1) {
  SystemConfig config;
  config.seed = seed;
  config.cores = 4;
  config.address_map.general_size = 16ull << 20;
  config.address_map.epc_size = 8ull << 20;
  return config;
}

// ---------------------------------------------------------------- kernel --

Process record_ticks(Scheduler& scheduler, std::vector<Cycles>* out,
                     Cycles period, int count) {
  for (int i = 0; i < count; ++i) {
    co_await WakeAt{scheduler, scheduler.now() + period};
    out->push_back(scheduler.now());
  }
}

TEST(Des, EventsFireInTimeOrder) {
  Scheduler scheduler;
  std::vector<Cycles> a, b;
  scheduler.spawn(record_ticks(scheduler, &a, 100, 5));
  scheduler.spawn(record_ticks(scheduler, &b, 70, 5));
  scheduler.run_to_completion();
  EXPECT_EQ(a, (std::vector<Cycles>{100, 200, 300, 400, 500}));
  EXPECT_EQ(b, (std::vector<Cycles>{70, 140, 210, 280, 350}));
}

TEST(Des, RunUntilStopsAtHorizon) {
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  scheduler.spawn(record_ticks(scheduler, &ticks, 100, 10));
  scheduler.run_until(350);
  EXPECT_EQ(ticks.size(), 3u);
  EXPECT_EQ(scheduler.now(), 300u);
  scheduler.run_to_completion();
  EXPECT_EQ(ticks.size(), 10u);
}

TEST(Des, StepDispatchesOneEvent) {
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  scheduler.spawn(record_ticks(scheduler, &ticks, 10, 3));
  EXPECT_TRUE(scheduler.step());  // initial resume enters the loop
  EXPECT_TRUE(scheduler.step());
  EXPECT_EQ(ticks.size(), 1u);
  while (scheduler.step()) {
  }
  EXPECT_EQ(ticks.size(), 3u);
  EXPECT_FALSE(scheduler.step());
}

// Run-ahead: the scheduler's loops continue an agent inline when its next
// event is the earliest anyway. What a loop returns, where it stops and
// what it leaves pending must be what one-event steps give.

TEST(Des, RunUntilCountsInlineEventsAndHonoursItsHorizon) {
  obs::Hub hub;
  Scheduler scheduler;
  scheduler.set_hub(&hub);
  std::vector<Cycles> ticks;
  scheduler.spawn(record_ticks(scheduler, &ticks, 100, 10));
  // The spawn event, then the wake-ups at 100, 200 and 300 — a lone agent
  // runs them inline, and they still count.
  EXPECT_EQ(scheduler.run_until(350), 4u);
  EXPECT_EQ(ticks, (std::vector<Cycles>{100, 200, 300}));
  EXPECT_EQ(scheduler.now(), 300u);
  EXPECT_FALSE(scheduler.idle());  // the wake-up at 400 stays queued
  EXPECT_EQ(scheduler.run_until(350), 0u);
  EXPECT_EQ(scheduler.run_until(400), 1u);  // a horizon is inclusive
  EXPECT_EQ(scheduler.run_to_completion(), 6u);
  EXPECT_EQ(ticks.size(), 10u);
  EXPECT_EQ(hub.registry().counter("des", "dispatched").value(), 11u);
  EXPECT_EQ(hub.registry().counter("des", "scheduled").value(), 11u);
  EXPECT_EQ(scheduler.event_seq(), 11u);
}

Process log_at(Scheduler& scheduler, Cycles when, int id,
               std::vector<int>* order) {
  co_await WakeAt{scheduler, when};
  order->push_back(id);
}

Process spawn_then_sleep(Scheduler& scheduler, std::vector<int>* order) {
  co_await WakeAt{scheduler, 50};
  // Due at 100, like the agent already queued there; that one came first.
  co_await WakeAt{scheduler, 100};
  order->push_back(1);
  // A process spawned now is due now, so sleeping past it must not run
  // ahead of it.
  scheduler.spawn(log_at(scheduler, 0, 2, order), 0);
  co_await WakeAt{scheduler, 105};
  order->push_back(3);
}

TEST(Des, RunAheadNeverOvertakesAnEventDueNoLater) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.spawn(log_at(scheduler, 100, 0, &order));
  scheduler.spawn(spawn_then_sleep(scheduler, &order));
  EXPECT_EQ(scheduler.run_to_completion(), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Des, RunUntilFlagDispatchesTheEventPastItsBudgetThenFails) {
  // As with one-event steps: the first event at or past max_cycles runs,
  // then the loop throws.
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  scheduler.spawn(record_ticks(scheduler, &ticks, 100, 10));
  const bool never = false;
  EXPECT_THROW(scheduler.run_until_flag(never, 350), CheckFailure);
  EXPECT_EQ(scheduler.now(), 400u);
  EXPECT_EQ(ticks.back(), 400u);
}

Process throwing_agent(Scheduler& scheduler) {
  co_await WakeAt{scheduler, 50};
  throw std::runtime_error("agent exploded");
}

TEST(Des, AgentExceptionPropagatesToDriver) {
  Scheduler scheduler;
  scheduler.spawn(throwing_agent(scheduler));
  EXPECT_THROW(scheduler.run_to_completion(), std::runtime_error);
}

Task<int> child_task(Scheduler& scheduler, Cycles delay) {
  co_await WakeAt{scheduler, scheduler.now() + delay};
  co_return 41;
}

Process parent_with_child(Scheduler& scheduler, int* out) {
  const int v = co_await child_task(scheduler, 30);
  *out = v + 1;
}

TEST(Des, TaskReturnsValueToParent) {
  Scheduler scheduler;
  int out = 0;
  scheduler.spawn(parent_with_child(scheduler, &out));
  scheduler.run_to_completion();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(scheduler.now(), 30u);
}

Task<> throwing_task() {
  throw std::logic_error("task failed");
  co_return;  // unreachable; makes this a coroutine
}

Process parent_catches(Scheduler& scheduler, bool* caught) {
  co_await WakeAt{scheduler, 1};
  try {
    co_await throwing_task();
  } catch (const std::logic_error&) {
    *caught = true;
  }
}

TEST(Des, TaskExceptionCatchableInParent) {
  Scheduler scheduler;
  bool caught = false;
  scheduler.spawn(parent_catches(scheduler, &caught));
  scheduler.run_to_completion();
  EXPECT_TRUE(caught);
}

TEST(Des, UnspawnedProcessCleansUp) {
  Scheduler scheduler;
  std::vector<Cycles> ticks;
  { const Process p = record_ticks(scheduler, &ticks, 10, 3); }
  EXPECT_TRUE(ticks.empty());  // never ran, no leak (ASAN would catch)
}

TEST(Des, FinishedProcessesArePruned) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.live_processes(), 0u);
  std::vector<Cycles> ticks;
  for (int i = 0; i < 1000; ++i)
    scheduler.spawn(record_ticks(scheduler, &ticks, 1, 2));
  EXPECT_EQ(scheduler.live_processes(), 1000u);
  scheduler.run_to_completion();
  EXPECT_EQ(ticks.size(), 2000u);
  EXPECT_EQ(scheduler.live_processes(), 0u);  // all reclaimed, not retained
}

TEST(Des, ExceptionStillPropagatesAfterManyCompletions) {
  // The O(1) completion path must not lose agent errors: an agent that dies
  // after thousands of other agents have come and gone still surfaces.
  Scheduler scheduler;
  std::vector<Cycles> scratch;
  for (int i = 0; i < 2000; ++i)
    scheduler.spawn(record_ticks(scheduler, &scratch, 1, 1));
  scheduler.spawn(throwing_agent(scheduler));  // throws at t=50
  EXPECT_THROW(scheduler.run_to_completion(), std::runtime_error);
  EXPECT_EQ(scheduler.live_processes(), 0u);
}

TEST(Des, DispatchCostIndependentOfHistoricalSpawns) {
  // Regression guard for the old dispatch(), which scanned every handle the
  // scheduler had EVER spawned after each event (O(events × processes)).
  // Time a fixed-size dispatch workload after a small and a large number of
  // historical (completed) spawns; the costs must be comparable.
  const auto timed_run = [](int history) {
    Scheduler scheduler;
    std::vector<Cycles> scratch;
    for (int i = 0; i < history; ++i)
      scheduler.spawn(record_ticks(scheduler, &scratch, 1, 1));
    scheduler.run_to_completion();
    std::vector<Cycles> ticks;
    scheduler.spawn(record_ticks(scheduler, &ticks, 1, 20'000));
    const auto start = std::chrono::steady_clock::now();
    scheduler.run_to_completion();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double small_history = timed_run(16);
  const double large_history = timed_run(20'000);
  // With the scanning dispatch this ratio is in the hundreds; 8x plus an
  // absolute 10 ms slack absorbs timer noise on loaded CI machines.
  EXPECT_LT(large_history, small_history * 8.0 + 0.01);
}

// ---------------------------------------------------------------- system --

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : system_(small_system_config()) {}
  System system_;
};

Process single_reader(Actor& actor, VirtAddr addr, AccessResult* out,
                      bool* done) {
  *out = co_await actor.read(addr);
  *done = true;
}

TEST_F(SystemTest, GeneralAccessLatencyIsDramPlusLookup) {
  Actor actor(system_, CoreId{0}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(actor, VirtAddr{0x1000'0000}, kPageSize);
  AccessResult result;
  bool done = false;
  system_.scheduler().spawn(single_reader(actor, buffer, &result, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.cache_level, cache::HitLevel::kMemory);
  EXPECT_FALSE(result.mee_level.has_value());
  EXPECT_NEAR(static_cast<double>(result.latency), 280.0 + 44.0, 120.0);
}

TEST_F(SystemTest, ProtectedAccessGoesThroughMee) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 64 * kPageSize});
  AccessResult result;
  bool done = false;
  system_.scheduler().spawn(
      single_reader(actor, enclave.address(0), &result, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(result.mee_level.has_value());
  EXPECT_EQ(*result.mee_level, mee::Level::kRoot);  // cold walk
  EXPECT_GT(result.latency, 600u);
}

Process hit_then_flush_then_miss(Actor& actor, VirtAddr addr,
                                 std::vector<cache::HitLevel>* levels,
                                 bool* done) {
  levels->push_back((co_await actor.read(addr)).cache_level);
  levels->push_back((co_await actor.read(addr)).cache_level);
  co_await actor.clflush(addr);
  levels->push_back((co_await actor.read(addr)).cache_level);
  *done = true;
}

TEST_F(SystemTest, ClflushForcesNextAccessToMemory) {
  Actor actor(system_, CoreId{1}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 16 * kPageSize});
  std::vector<cache::HitLevel> levels;
  bool done = false;
  system_.scheduler().spawn(
      hit_then_flush_then_miss(actor, enclave.address(64), &levels, &done));
  system_.scheduler().run_to_completion();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0], cache::HitLevel::kMemory);
  EXPECT_EQ(levels[1], cache::HitLevel::kL1);
  EXPECT_EQ(levels[2], cache::HitLevel::kMemory);
}

Process versions_hit_probe(Actor& actor, VirtAddr addr,
                           std::vector<mee::StopLevel>* levels, bool* done) {
  co_await actor.read(addr);
  co_await actor.clflush(addr);
  const auto r = co_await actor.read(addr);
  levels->push_back(*r.mee_level);
  *done = true;
}

TEST_F(SystemTest, ClflushDoesNotTouchMeeCache) {
  // The attack's core asymmetry (§3 challenge 1): after clflush the access
  // reaches DRAM again, but the versions line is still cached in the MEE.
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 16 * kPageSize});
  std::vector<mee::StopLevel> levels;
  bool done = false;
  system_.scheduler().spawn(
      versions_hit_probe(actor, enclave.address(0), &levels, &done));
  system_.scheduler().run_to_completion();
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], mee::Level::kVersions);
}

Process writer_then_reader(Actor& writer, Actor& reader, VirtAddr waddr,
                           VirtAddr raddr, mem::Line payload, mem::Line* out,
                           bool* done) {
  co_await writer.write(waddr, payload);
  *out = (co_await reader.read(raddr)).data;
  *done = true;
}

TEST_F(SystemTest, DataVisibleAcrossEnclaveSharers) {
  // Two threads of the same enclave (same VAS would be ideal; here the
  // second actor maps the same frames) observe each other's plaintext.
  Actor writer(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(writer, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                  4 * kPageSize});
  Actor reader(system_, CoreId{1}, CpuMode::kEnclave);
  for (std::uint64_t p = 0; p < enclave.page_count(); ++p)
    reader.vas().map_page(enclave.base() + p * kPageSize, enclave.frame(p));

  mem::Line payload;
  payload.fill(0x77);
  mem::Line out{};
  bool done = false;
  system_.scheduler().spawn(writer_then_reader(writer, reader,
                                               enclave.address(128),
                                               enclave.address(128), payload,
                                               &out, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(done);
  EXPECT_EQ(out, payload);
}

TEST_F(SystemTest, NonEnclaveAccessToEpcFaults) {
  Actor enclave_owner(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(enclave_owner,
                       sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                          4 * kPageSize});
  Actor intruder(system_, CoreId{1}, CpuMode::kNonEnclave);
  intruder.vas().map_page(VirtAddr{0x1000}, enclave.frame(0));

  bool done = false;
  AccessResult result;
  system_.scheduler().spawn(
      single_reader(intruder, VirtAddr{0x1000}, &result, &done));
  EXPECT_THROW(system_.scheduler().run_to_completion(), ModeViolation);
}

// ---------------------------------------------------------------- actors --

TEST_F(SystemTest, RdtscFaultsInEnclaveModeOnly) {
  Actor enclave_actor(system_, CoreId{0}, CpuMode::kEnclave);
  EXPECT_THROW(enclave_actor.read_timer(native_rdtsc_timer()), ModeViolation);
  Actor native_actor(system_, CoreId{1}, CpuMode::kNonEnclave);
  EXPECT_NO_THROW(native_actor.read_timer(native_rdtsc_timer()));
}

TEST_F(SystemTest, OcallTimerCostsThousands) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  for (int i = 0; i < 50; ++i) {
    const Cycles before = actor.now();
    actor.read_timer(ocall_timer());
    const Cycles cost = actor.now() - before;
    EXPECT_GE(cost, 8000u);
    EXPECT_LE(cost, 15000u);
  }
}

TEST_F(SystemTest, SharedClockCheapAndMonotonic) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  actor.advance(12345);
  Cycles prev = 0;
  for (int i = 0; i < 50; ++i) {
    const Cycles before = actor.now();
    const Cycles value = actor.read_timer(shared_clock_timer());
    EXPECT_EQ(actor.now() - before, 50u);
    EXPECT_LE(value, before);               // stale, never from the future
    EXPECT_GE(value + 20, before);          // stale by < one writer period
    EXPECT_GE(value, prev);
    prev = value;
  }
}

TEST_F(SystemTest, BusyWaitAndMfenceAdvanceClock) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  actor.busy_wait_until(1000);
  EXPECT_EQ(actor.now(), 1000u);
  actor.busy_wait_until(500);  // never backwards
  EXPECT_EQ(actor.now(), 1000u);
  actor.mfence();
  EXPECT_GT(actor.now(), 1000u);
}

// ----------------------------------------------------------------- noise --

TEST_F(SystemTest, StrideWalkerGeneratesMeeTraffic) {
  Actor noise(system_, CoreId{2}, CpuMode::kEnclave);
  sgx::Enclave enclave(noise, sgx::EnclaveConfig{VirtAddr{0x7200'0000'0000},
                                                 64 * kPageSize});
  system_.scheduler().spawn(mee_stride_walker(
      noise, StrideWalkerConfig{.base = enclave.base(),
                                .bytes = enclave.size(),
                                .stride = 4096,
                                .gap = 200}));
  system_.scheduler().run_until(200'000);
  EXPECT_GT(system_.mee().stats().reads, 100u);
}

TEST_F(SystemTest, MemoryStressorNeverTouchesMee) {
  Actor noise(system_, CoreId{2}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(noise, VirtAddr{0x2000'0000}, 64 * kPageSize);
  system_.scheduler().spawn(memory_stressor(
      noise, StressorConfig{.base = buffer, .bytes = 64 * kPageSize}));
  system_.scheduler().run_until(200'000);
  EXPECT_EQ(system_.mee().stats().reads, 0u);
  EXPECT_GT(system_.dram().access_count(), 100u);
}

TEST_F(SystemTest, BackgroundActivityRateFollowsMeanGap) {
  Actor bg(system_, CoreId{3}, CpuMode::kEnclave);
  sgx::Enclave enclave(bg, sgx::EnclaveConfig{VirtAddr{0x7300'0000'0000},
                                              64 * kPageSize});
  system_.scheduler().spawn(background_activity(
      bg, BackgroundConfig{.base = enclave.base(),
                           .bytes = enclave.size(),
                           .mean_gap = 20'000}));
  system_.scheduler().run_until(2'000'000);
  const auto reads = system_.mee().stats().reads;
  EXPECT_GT(reads, 50u);   // ~100 expected
  EXPECT_LT(reads, 200u);
}

Process write_then_read(Actor& actor, VirtAddr addr, mem::Line payload,
                        std::vector<AccessResult>* results, bool* done) {
  results->push_back(co_await actor.write(addr, payload));
  co_await actor.clflush(addr);
  results->push_back(co_await actor.read(addr));
  *done = true;
}

TEST_F(SystemTest, EnclaveWritePathEncryptsAndReadsBack) {
  Actor actor(system_, CoreId{0}, CpuMode::kEnclave);
  sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                 4 * kPageSize});
  mem::Line payload;
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i ^ 0xa5);
  std::vector<AccessResult> results;
  bool done = false;
  system_.scheduler().spawn(
      write_then_read(actor, enclave.address(0x300), payload, &results, &done));
  system_.scheduler().run_to_completion();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].data, payload);
  // The writeback paid the MEE update path on top of the walk.
  EXPECT_GT(results[0].latency, results[1].latency);
  // Simulated DRAM holds ciphertext, not the payload.
  const PhysAddr paddr = actor.vas().translate(enclave.address(0x300));
  EXPECT_NE(system_.memory().read_line(paddr), payload);
}

TEST_F(SystemTest, GeneralWritePathStoresPlaintext) {
  Actor actor(system_, CoreId{1}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(actor, VirtAddr{0x3000'0000}, kPageSize);
  mem::Line payload;
  payload.fill(0x42);
  std::vector<AccessResult> results;
  bool done = false;
  system_.scheduler().spawn(
      write_then_read(actor, buffer + 128, payload, &results, &done));
  system_.scheduler().run_to_completion();
  ASSERT_TRUE(done);
  EXPECT_EQ(results[1].data, payload);
  const PhysAddr paddr = actor.vas().translate(buffer + 128);
  EXPECT_EQ(system_.memory().read_line(paddr), payload);
}

TEST_F(SystemTest, MapGeneralBufferRejectsBadArguments) {
  Actor actor(system_, CoreId{0}, CpuMode::kNonEnclave);
  EXPECT_THROW(map_general_buffer(actor, VirtAddr{0x1001}, kPageSize),
               CheckFailure);
  EXPECT_THROW(map_general_buffer(actor, VirtAddr{0x1000}, kPageSize + 1),
               CheckFailure);
}

TEST_F(SystemTest, MeeContentionDelaysBackToBackArrivals) {
  // Two accesses arriving (nearly) simultaneously from different cores: the
  // second queues behind the engine's service time.
  auto& mee = system_.mee();
  const PhysAddr a = system_.map().protected_data().base;
  const PhysAddr b = system_.map().protected_data().base + 512 * 1024;
  mee.read_line(CoreId{0}, a, nullptr, 1'000'000);
  const auto contended = mee.read_line(CoreId{1}, b, nullptr, 1'000'010);
  mee.mutable_cache().flush_all();
  const auto idle = mee.read_line(CoreId{1}, b, nullptr, 5'000'000);
  EXPECT_GT(contended.extra_latency, idle.extra_latency + 50);
}

Process flag_then_read(Actor& actor, VirtAddr addr, bool* done, int* reads) {
  co_await actor.read(addr);
  ++*reads;
  co_await actor.read(addr);
  ++*reads;
  *done = true;
  co_await actor.read(addr);
  ++*reads;
}

TEST_F(SystemTest, ReadAfterTheWatchedFlagStaysPending) {
  Actor actor(system_, CoreId{0}, CpuMode::kNonEnclave);
  const VirtAddr buffer =
      map_general_buffer(actor, VirtAddr{0x1000'0000}, kPageSize);
  bool done = false;
  int reads = 0;
  system_.scheduler().spawn(flag_then_read(actor, buffer, &done, &reads));
  EXPECT_EQ(system_.scheduler().run_until_flag(done), 3u);
  EXPECT_EQ(reads, 2);
  EXPECT_FALSE(system_.scheduler().idle());
  EXPECT_EQ(system_.scheduler().live_processes(), 1u);
  EXPECT_TRUE(system_.scheduler().step());
  EXPECT_EQ(reads, 3);
  EXPECT_TRUE(system_.scheduler().idle());
}

/// One entry per completed operation of a run_ahead_agent.
struct OpRecord {
  std::uint32_t core = 0;
  Cycles scheduler_now = 0;
  Cycles actor_now = 0;
  cache::HitLevel level = cache::HitLevel::kMemory;
  friend bool operator==(const OpRecord&, const OpRecord&) = default;
};

/// Random protected reads, clflushes and sleeps, some of them long enough
/// for the other agents to overtake; sets `*done` after `ops` and then
/// keeps going for another `ops`.
Process run_ahead_agent(Actor& actor, const sgx::Enclave& enclave, int ops,
                        bool* done, std::vector<OpRecord>* log) {
  for (int i = 0; i < 2 * ops; ++i) {
    if (i == ops) *done = true;
    const VirtAddr addr =
        enclave.address(actor.rng().next_below(enclave.size() / kLineSize) *
                        kLineSize);
    const auto pick = actor.rng().next_below(4);
    AccessResult result;
    if (pick == 0)
      co_await actor.clflush(addr);
    else if (pick == 1)
      co_await actor.sleep_for(actor.rng().next_below(3000));
    else
      result = co_await actor.read(addr);
    log->push_back({actor.core().value, actor.scheduler().now(), actor.now(),
                    result.cache_level});
  }
}

struct RunAheadOutcome {
  std::vector<OpRecord> log;
  std::vector<obs::TraceEvent> trace;
  obs::CounterSnapshot counters;
  Cycles now = 0;
  std::uint64_t seq = 0;
};

/// Three agents on one machine, driven by the scheduler's loops
/// (`by_steps` false) or by step() alone with the same stopping rules.
RunAheadOutcome run_three_agents(bool by_steps) {
  System system(small_system_config(5));
  obs::CollectingSink sink;
  system.hub().set_trace_sink(&sink);
  std::vector<std::unique_ptr<Actor>> actors;
  std::vector<std::unique_ptr<sgx::Enclave>> enclaves;
  RunAheadOutcome out;
  bool done[3] = {false, false, false};
  for (std::uint32_t c = 0; c < 3; ++c) {
    actors.push_back(
        std::make_unique<Actor>(system, CoreId{c}, CpuMode::kEnclave));
    enclaves.push_back(std::make_unique<sgx::Enclave>(
        *actors.back(),
        sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000ULL + c * (1ULL << 32)},
                           8 * kPageSize}));
    system.scheduler().spawn(run_ahead_agent(*actors.back(),
                                             *enclaves.back(), 150 + 50 * c,
                                             &done[c], &out.log));
  }
  Scheduler& scheduler = system.scheduler();
  if (by_steps) {
    while (!done[0]) EXPECT_TRUE(scheduler.step());
    while (!done[2]) EXPECT_TRUE(scheduler.step());
    while (scheduler.step()) {
    }
  } else {
    scheduler.run_until_flag(done[0]);
    scheduler.run_until_flag(done[2]);
    scheduler.run_to_completion();
  }
  out.trace = sink.events();
  out.counters = system.hub().registry().snapshot();
  out.now = scheduler.now();
  out.seq = scheduler.event_seq();
  return out;
}

TEST(Des, LoopsMatchOneEventStepsOnAMachine) {
  const RunAheadOutcome loops = run_three_agents(false);
  const RunAheadOutcome steps = run_three_agents(true);
  ASSERT_EQ(loops.log.size(), 2u * (150 + 200 + 250));
  EXPECT_TRUE(loops.log == steps.log);
  EXPECT_TRUE(loops.trace == steps.trace);
  EXPECT_EQ(loops.counters, steps.counters);
  EXPECT_EQ(loops.now, steps.now);
  EXPECT_EQ(loops.seq, steps.seq);
  EXPECT_GT(obs::snapshot_value(loops.counters, "des.dispatched"), 0u);
}

TEST(SystemDeterminism, SameSeedSameTrace) {
  for (int run = 0; run < 2; ++run) {
    static std::vector<Cycles> first_latencies;
    System system(small_system_config(7));
    Actor actor(system, CoreId{0}, CpuMode::kEnclave);
    sgx::Enclave enclave(actor, sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000},
                                                   16 * kPageSize});
    std::vector<Cycles> latencies;
    bool done = false;
    auto proc = [](Actor& a, const sgx::Enclave& e, std::vector<Cycles>* out,
                   bool* flag) -> Process {
      for (int i = 0; i < 20; ++i) {
        const auto r = co_await a.read(e.address(i * kPageSize % e.size()));
        out->push_back(r.latency);
        co_await a.clflush(e.address(i * kPageSize % e.size()));
      }
      *flag = true;
    };
    system.scheduler().spawn(proc(actor, enclave, &latencies, &done));
    system.scheduler().run_to_completion();
    if (run == 0)
      first_latencies = latencies;
    else
      EXPECT_EQ(latencies, first_latencies);
  }
}

}  // namespace
}  // namespace meecc::sim
