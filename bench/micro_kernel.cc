// google-benchmark microbenchmarks of the simulator's hot kernels — useful
// when tuning experiment runtimes (the figure benches simulate hundreds of
// thousands of MEE walks).
#include <benchmark/benchmark.h>

#include <string>

#include "cache/set_assoc_cache.h"
#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/aes_backend.h"
#include "crypto/line_cipher.h"
#include "crypto/mac.h"
#include "crypto/multilinear_mac.h"
#include "mee/engine.h"
#include "mem/address_map.h"
#include "mem/physical_memory.h"
#include "sim/des.h"

namespace {

using namespace meecc;

// Arg(0): the byte-wise reference cipher. Arg(1): the backend
// make_aes_backend() picks on this CPU (AES-NI when available).
void BM_AesEncryptBlock(benchmark::State& state) {
  const crypto::Key128 key{1, 2, 3, 4};
  const crypto::Aes128 reference(key);
  const auto selected = crypto::make_aes_backend(key);
  const bool use_reference = state.range(0) == 0;
  state.SetLabel(use_reference ? "reference" : std::string(selected->name()));
  crypto::Block block{};
  for (auto _ : state) {
    block = use_reference ? reference.encrypt(block) : selected->encrypt(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock)->Arg(0)->Arg(1);

// Arg(0): fresh nonce each iteration (keystream cache misses).
// Arg(1): fixed nonce (keystream cache hits — the AES disappears).
void BM_LineEncrypt(benchmark::State& state) {
  const crypto::LineCipher cipher(crypto::Key128{5, 6, 7, 8});
  const bool hot = state.range(0) != 0;
  crypto::LineData line{};
  std::uint64_t version = 0;
  for (auto _ : state) {
    line = cipher.encrypt(line, 0x1000, hot ? 1 : ++version);
    benchmark::DoNotOptimize(line);
  }
}
BENCHMARK(BM_LineEncrypt)->Arg(0)->Arg(1);

void BM_MacTag(benchmark::State& state) {
  const crypto::MacFunction mac(crypto::Key128{9, 10, 11, 12});
  crypto::LineData line{};
  std::uint64_t version = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.tag(0x40, ++version, line));
  }
}
BENCHMARK(BM_MacTag);

// Same cold/hot split for the multilinear MAC's (address, version) pad.
void BM_MultilinearTag(benchmark::State& state) {
  const crypto::MultilinearMac mac(crypto::Key128{9, 10, 11, 12});
  const bool hot = state.range(0) != 0;
  crypto::LineData line{};
  std::uint64_t version = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.tag(0x40, hot ? 1 : ++version, line));
  }
}
BENCHMARK(BM_MultilinearTag)->Arg(0)->Arg(1);

void BM_CacheAccess(benchmark::State& state) {
  cache::SetAssocCache cache(cache::mee_cache_geometry(),
                             cache::ReplacementKind::kTreePlru, Rng(1));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(PhysAddr{rng.next_below(1 << 22) * 64}));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_MeeReadVersionsHit(benchmark::State& state) {
  const mem::AddressMap map(
      mem::AddressMapConfig{.general_size = 1 << 20, .epc_size = 4 << 20});
  mem::PhysicalMemory memory;
  mee::MeeConfig config;
  config.functional_crypto = state.range(0) != 0;
  mee::MeeEngine engine(map, memory, config, Rng(1));
  const PhysAddr addr = map.protected_data().base;
  engine.read_line(CoreId{0}, addr);  // warm the path
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.read_line(CoreId{0}, addr));
  }
}
BENCHMARK(BM_MeeReadVersionsHit)->Arg(0)->Arg(1);

void BM_MeeColdWalk(benchmark::State& state) {
  const mem::AddressMap map(
      mem::AddressMapConfig{.general_size = 1 << 20, .epc_size = 4 << 20});
  mem::PhysicalMemory memory;
  mee::MeeConfig config;
  config.functional_crypto = state.range(0) != 0;
  mee::MeeEngine engine(map, memory, config, Rng(1));
  const PhysAddr addr = map.protected_data().base;
  for (auto _ : state) {
    engine.mutable_cache().flush_all();
    benchmark::DoNotOptimize(engine.read_line(CoreId{0}, addr));
  }
}
BENCHMARK(BM_MeeColdWalk)->Arg(0)->Arg(1);

sim::Process bench_ticker(sim::Scheduler& scheduler, std::uint64_t events) {
  for (std::uint64_t i = 0; i < events; ++i)
    co_await sim::WakeAt{scheduler, scheduler.now() + 1};
}

sim::Process bench_one_shot(sim::Scheduler& scheduler) {
  co_await sim::WakeAt{scheduler, scheduler.now() + 1};
}

// Per-event dispatch cost of a single long-lived agent.
void BM_SchedulerDispatch(benchmark::State& state) {
  const std::uint64_t events = 4096;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    scheduler.spawn(bench_ticker(scheduler, events));
    scheduler.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SchedulerDispatch);

// Spawn-to-reap lifecycle cost: many short-lived agents. With the old
// owned_-scanning dispatch this was quadratic in the agent count.
void BM_SchedulerChurn(benchmark::State& state) {
  const auto agents = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler scheduler;
    for (std::uint64_t i = 0; i < agents; ++i)
      scheduler.spawn(bench_one_shot(scheduler));
    scheduler.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(agents));
}
BENCHMARK(BM_SchedulerChurn)->Arg(256)->Arg(4096);

// End-to-end: the full quickstart covert-channel scenario.
void BM_QuickstartEndToEnd(benchmark::State& state) {
  std::uint64_t walks = 0;
  for (auto _ : state) {
    channel::TestBed bed(channel::default_testbed_config(1));
    const auto payload = channel::alternating_bits(8);
    const auto result =
        channel::run_covert_channel(bed, channel::ChannelConfig{}, payload);
    benchmark::DoNotOptimize(result.monitor_found);
    const auto stats = bed.system().mee().stats();
    walks += stats.reads + stats.writes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(walks));
  state.SetLabel("items = MEE walks");
}
BENCHMARK(BM_QuickstartEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
