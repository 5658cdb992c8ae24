#include "channel/testbed.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "sim/snapshot_io.h"

namespace meecc::channel {

std::string_view to_string(NoiseEnv env) {
  switch (env) {
    case NoiseEnv::kNone:
      return "no noise";
    case NoiseEnv::kMemoryStress:
      return "cache+memory stress";
    case NoiseEnv::kMeeStride512:
      return "MEE noise, 512B stride";
    case NoiseEnv::kMeeStride4K:
      return "MEE noise, 4KB stride";
  }
  return "?";
}

std::string_view to_token(NoiseEnv env) {
  switch (env) {
    case NoiseEnv::kNone:
      return "none";
    case NoiseEnv::kMemoryStress:
      return "stress";
    case NoiseEnv::kMeeStride512:
      return "mee512";
    case NoiseEnv::kMeeStride4K:
      return "mee4k";
  }
  return "?";
}

std::optional<NoiseEnv> noise_env_from_string(std::string_view token) {
  if (token == "none") return NoiseEnv::kNone;
  if (token == "stress" || token == "memstress") return NoiseEnv::kMemoryStress;
  if (token == "mee512") return NoiseEnv::kMeeStride512;
  if (token == "mee4k") return NoiseEnv::kMeeStride4K;
  return std::nullopt;
}

TestBedConfig default_testbed_config(std::uint64_t seed) {
  TestBedConfig config;
  config.system.seed = seed;
  config.system.cores = 4;
  config.system.address_map.general_size = 64ull << 20;
  config.system.address_map.epc_size = 32ull << 20;
  return config;
}

TestBed::TestBed(const TestBedConfig& config) : config_(config) {
  build_machine();
  spawn_environment();
}

TestBed::TestBed(const TestBedConfig& config, const TestBedSnapshot& snap)
    : config_(config) {
  // Full construction replays the donor's deterministic prefix (RNG fork
  // order, EPC frame allocation, page-table layout), so restore() only has
  // to overwrite mutable state on top.
  build_machine();
  system_->restore(snap.system);
  restore_actors(snap);
  rearm_environment(snap.agents);
}

void TestBed::restore_actors(const TestBedSnapshot& snap) {
  sim::Actor* actors[] = {trojan_actor_.get(), spy_actor_.get(),
                          noise_actor_.get(), background_actor_.get()};
  for (std::size_t i = 0; i < snap.actors.size(); ++i) {
    actors[i]->restore_clock(snap.actors[i].clock);
    actors[i]->rng() = snap.actors[i].rng;
    // libstdc++ map assignment reuses the destination's nodes, so the
    // page-table copy does not reallocate on a recycled bed.
    actors[i]->vas() = snap.actors[i].vas;
  }
  noise_started_ = snap.noise_started;
}

bool TestBed::try_reset(const TestBedSnapshot& snap) {
  // After a completed trial only the environment agents are live, so
  // stopping them quiesces the bed. After an aborted trial (exception
  // mid-transfer) other coroutine frames may still be parked — they cannot
  // be rewound, so report failure instead of CHECK-dying.
  stop_environment();
  if (!scheduler().idle() || scheduler().live_processes() != 0) return false;
  system_->restore_into(snap.system);
  restore_actors(snap);
  rearm_environment(snap.agents);
  return true;
}

void TestBed::build_machine() {
  system_ = std::make_unique<sim::System>(config_.system);

  trojan_actor_ =
      std::make_unique<sim::Actor>(*system_, CoreId{0}, CpuMode::kEnclave);
  spy_actor_ =
      std::make_unique<sim::Actor>(*system_, CoreId{1}, CpuMode::kEnclave);
  noise_actor_ =
      std::make_unique<sim::Actor>(*system_, CoreId{2}, CpuMode::kEnclave);
  background_actor_ =
      std::make_unique<sim::Actor>(*system_, CoreId{3}, CpuMode::kEnclave);

  // EPC frames are handed out contiguously (enclave-build order), so the
  // allocation order below fixes each enclave's alias-group coverage.
  trojan_enclave_ = std::make_unique<sgx::Enclave>(
      *trojan_actor_,
      sgx::EnclaveConfig{VirtAddr{0x7000'0000'0000ULL},
                         config_.trojan_enclave_bytes});
  spy_enclave_ = std::make_unique<sgx::Enclave>(
      *spy_actor_, sgx::EnclaveConfig{VirtAddr{0x7100'0000'0000ULL},
                                      config_.spy_enclave_bytes});
  noise_enclave_ = std::make_unique<sgx::Enclave>(
      *noise_actor_, sgx::EnclaveConfig{VirtAddr{0x7200'0000'0000ULL},
                                        config_.noise_enclave_bytes});
  background_enclave_ = std::make_unique<sgx::Enclave>(
      *background_actor_, sgx::EnclaveConfig{VirtAddr{0x7300'0000'0000ULL},
                                             config_.background_enclave_bytes});
}

void TestBed::spawn_environment() {
  spawn_background();
  if (config_.noise_autostart) start_noise();
}

void TestBed::spawn_background() {
  if (config_.background_mean_gap == 0) return;
  background_cursor_ = sim::AgentCursor{};
  background_handle_ = scheduler().spawn(background_agent());
}

void TestBed::spawn_noise() {
  if (config_.noise == NoiseEnv::kNone) return;
  noise_cursor_ = sim::AgentCursor{};
  noise_handle_ = scheduler().spawn(noise_agent());
}

sim::Process TestBed::background_agent() {
  return sim::background_activity(
      *background_actor_,
      sim::BackgroundConfig{.base = background_enclave_->base(),
                            .bytes = background_enclave_->size(),
                            .mean_gap = config_.background_mean_gap},
      &background_cursor_);
}

void TestBed::start_noise() {
  if (noise_started_) return;
  noise_started_ = true;
  // Bring the noise core's clock up to date: a freshly-started co-tenant
  // must not generate traffic "in the past".
  noise_actor_->busy_wait_until(scheduler().now());
  if (config_.noise == NoiseEnv::kMemoryStress) {
    // The mapping survives restarts and forks (it lives in the actor's address
    // space, not in the agent), so it happens once here, not per spawn.
    sim::map_general_buffer(*noise_actor_, VirtAddr{0x6000'0000'0000ULL},
                            16ull << 20);
  }
  spawn_noise();
}

sim::Process TestBed::noise_agent() {
  switch (config_.noise) {
    case NoiseEnv::kMemoryStress:
      return sim::memory_stressor(
          *noise_actor_,
          sim::StressorConfig{.base = VirtAddr{0x6000'0000'0000ULL},
                              .bytes = 16ull << 20,
                              .gap = 120,
                              .flush_probability = 0.5},
          &noise_cursor_);
    case NoiseEnv::kMeeStride512:
      return sim::mee_stride_walker(
          *noise_actor_,
          sim::StrideWalkerConfig{.base = noise_enclave_->base(),
                                  .bytes = noise_enclave_->size(),
                                  .stride = 512,
                                  .gap = 180},
          &noise_cursor_);
    case NoiseEnv::kMeeStride4K:
      // A 512 KB window keeps the lap short enough that the per-lap column
      // rotation sweeps all eight versions alias families within a transfer.
      return sim::mee_stride_walker(
          *noise_actor_,
          sim::StrideWalkerConfig{
              .base = noise_enclave_->base(),
              .bytes = std::min<std::uint64_t>(noise_enclave_->size(),
                                               512 * 1024),
              .stride = 4096,
              .gap = 180},
          &noise_cursor_);
    case NoiseEnv::kNone:
      break;
  }
  throw CheckFailure("no noise agent for noise=none");
}

std::vector<ParkedAgent> TestBed::park_environment() {
  struct Captured {
    ParkedAgent agent;
    sim::CancelledEvent event;
  };
  std::vector<Captured> captured;
  const auto park = [&](sim::ProcessHandle& handle, ParkedAgent::Kind kind,
                        const sim::AgentCursor& cursor) {
    const auto event = scheduler().cancel(handle);
    handle = sim::ProcessHandle{};
    if (event)
      captured.push_back({ParkedAgent{kind, cursor, event->when}, *event});
  };
  park(background_handle_, ParkedAgent::Kind::kBackground, background_cursor_);
  park(noise_handle_, ParkedAgent::Kind::kNoise, noise_cursor_);
  // Dispatch order; equal keys keep cancel order (see CancelledEvent).
  std::stable_sort(captured.begin(), captured.end(),
                   [](const Captured& a, const Captured& b) {
                     const auto& x = a.event;
                     const auto& y = b.event;
                     if (x.when != y.when) return x.when < y.when;
                     if (x.bucket_seq != y.bucket_seq)
                       return x.bucket_seq < y.bucket_seq;
                     return x.position < y.position;
                   });
  std::vector<ParkedAgent> agents;
  agents.reserve(captured.size());
  for (const Captured& c : captured) agents.push_back(c.agent);
  return agents;
}

void TestBed::stop_environment() {
  scheduler().cancel(background_handle_);
  background_handle_ = sim::ProcessHandle{};
  scheduler().cancel(noise_handle_);
  noise_handle_ = sim::ProcessHandle{};
}

void TestBed::rearm_environment(const std::vector<ParkedAgent>& agents) {
  for (const ParkedAgent& agent : agents) {
    const bool background = agent.kind == ParkedAgent::Kind::kBackground;
    sim::AgentCursor& cursor = background ? background_cursor_ : noise_cursor_;
    cursor = agent.cursor;
    cursor.resume = true;
    (background ? background_handle_ : noise_handle_) = scheduler().rearm(
        background ? background_agent() : noise_agent(), agent.when);
  }
}

void TestBed::restart_environment() {
  stop_environment();
  MEECC_CHECK_MSG(
      scheduler().idle() && scheduler().live_processes() == 0,
      "agents beyond the environment are still live at the restart boundary");
  spawn_background();
  // Not start_noise(): the stress buffer is already mapped (it lives in the
  // actor's address space) and the noise clock is already current.
  if (noise_started_) spawn_noise();
}

TestBedSnapshot TestBed::snapshot() {
  // The environment agents are captured by parking them — their cursors
  // and pending event times go into the snapshot — and then continued
  // from exactly there, the same re-arm a fork performs.
  std::vector<ParkedAgent> agents = park_environment();
  MEECC_CHECK_MSG(
      scheduler().idle() && scheduler().live_processes() == 0,
      "agents beyond the environment are still live at the snapshot point");
  TestBedSnapshot snap{
      .system = system_->snapshot(),
      .actors = {{{trojan_actor_->now(), trojan_actor_->rng(),
                   trojan_actor_->vas()},
                  {spy_actor_->now(), spy_actor_->rng(), spy_actor_->vas()},
                  {noise_actor_->now(), noise_actor_->rng(),
                   noise_actor_->vas()},
                  {background_actor_->now(), background_actor_->rng(),
                   background_actor_->vas()}}},
      .noise_started = noise_started_,
      .agents = std::move(agents)};
  rearm_environment(snap.agents);
  return snap;
}

void encode_testbed_snapshot(io::Writer& w, sim::System& shape,
                             const TestBedSnapshot& snap) {
  sim::encode_snapshot(w, shape, snap.system);
  for (const auto& actor : snap.actors) {
    w.u64(actor.clock);
    encode_rng(w, actor.rng);
    const auto pages = actor.vas.sorted_pages();
    w.u64(pages.size());
    for (const auto& [vpn, pfn] : pages) {
      w.u64(vpn);
      w.u64(pfn);
    }
  }
  w.u8(snap.noise_started ? 1 : 0);
  w.u64(snap.agents.size());
  for (const ParkedAgent& agent : snap.agents) {
    w.u8(static_cast<std::uint8_t>(agent.kind));
    w.u8(static_cast<std::uint8_t>(agent.cursor.op));
    w.u64(agent.cursor.target.raw);
    w.u64(agent.cursor.lap);
    w.u64(agent.cursor.offset);
    w.u64(agent.when);
  }
}

TestBedSnapshot decode_testbed_snapshot(io::Reader& r, sim::System& shape) {
  // Actor states are spelled out (not brace-elided) because Rng's
  // constructor is explicit; every field is overwritten below anyway.
  TestBedSnapshot::ActorState blank{0, Rng(), mem::VirtualAddressSpace()};
  TestBedSnapshot snap{.system = sim::decode_snapshot(r, shape),
                       .actors = {{blank, blank, blank, blank}},
                       .noise_started = false,
                       .agents = {}};
  for (auto& actor : snap.actors) {
    actor.clock = r.u64();
    actor.rng = decode_rng(r);
    const std::uint64_t page_count = r.count(16);  // vpn + pfn
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pages;
    pages.reserve(static_cast<std::size_t>(page_count));
    for (std::uint64_t i = 0; i < page_count; ++i) {
      const std::uint64_t vpn = r.u64();
      const std::uint64_t pfn = r.u64();
      pages.emplace_back(vpn, pfn);
    }
    actor.vas.import_pages(pages);
  }
  snap.noise_started = r.u8() != 0;
  const std::uint64_t agent_count = r.count(34);  // 2 tags + 4 words
  if (agent_count > 2) throw io::DecodeError("more than two parked agents");
  for (std::uint64_t i = 0; i < agent_count; ++i) {
    ParkedAgent agent;
    const std::uint8_t kind = r.u8();
    const std::uint8_t op = r.u8();
    if (kind > static_cast<std::uint8_t>(ParkedAgent::Kind::kNoise) ||
        op > static_cast<std::uint8_t>(sim::AgentCursor::Op::kSleep))
      throw io::DecodeError("bad parked agent tag");
    agent.kind = static_cast<ParkedAgent::Kind>(kind);
    agent.cursor.op = static_cast<sim::AgentCursor::Op>(op);
    agent.cursor.target = VirtAddr{r.u64()};
    agent.cursor.lap = r.u64();
    agent.cursor.offset = r.u64();
    agent.when = r.u64();
    snap.agents.push_back(agent);
  }
  return snap;
}

}  // namespace meecc::channel
