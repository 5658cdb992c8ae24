// Noise agents for the Fig. 8 robustness environments, plus the low-rate
// background activity every environment carries (OS + SGX runtime enclave
// housekeeping — the source of the channel's residual ~1–2 % error floor).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/actor.h"

namespace meecc::sim {

/// Loop state of an environment agent, kept outside its coroutine frame so
/// a snapshot can capture the agent mid-iteration and a fork can continue
/// it from exactly there (a coroutine frame itself cannot be copied). Each
/// agent below keeps it in `cursor` when one is given, else privately.
struct AgentCursor {
  /// kStart: spawned, its first dispatch (which starts the loop) pending.
  enum class Op : std::uint8_t { kStart, kRead, kFlush, kSleep };
  Op op = Op::kStart;       ///< the operation the agent is parked on
  VirtAddr target{};        ///< line read and flushed this iteration
  std::uint64_t lap = 0;    ///< stride walker: completed laps
  std::uint64_t offset = 0; ///< stride walker: next offset in the window
  /// Set by whoever re-arms the agent from a snapshot: its first dispatch
  /// completes `op` (the event the donor was parked on) instead of
  /// starting a fresh iteration. The agent clears it.
  bool resume = false;
};

/// Maps `bytes` of fresh general-region memory into the actor's address
/// space at `base` and returns `base` (convenience for noise buffers and
/// non-enclave scratch memory).
VirtAddr map_general_buffer(Actor& actor, VirtAddr base, std::uint64_t bytes);

/// stress-ng-like cache/memory stressor (Fig. 8b): random reads over a
/// general-region buffer, with occasional clflush, as fast as `gap` allows.
/// Never touches the protected region, so the MEE cache never sees it.
struct StressorConfig {
  VirtAddr base;
  std::uint64_t bytes = 0;
  Cycles gap = 120;
  double flush_probability = 0.5;
};
Process memory_stressor(Actor& actor, StressorConfig config,
                        AgentCursor* cursor = nullptr);

/// Protected-region stride walker (Fig. 8c/d): a co-tenant enclave that
/// continuously loads fresh integrity-tree data through the MEE cache.
/// 512 B stride churns versions lines; 4 KB stride churns versions + L0.
struct StrideWalkerConfig {
  VirtAddr base;
  std::uint64_t bytes = 0;
  std::uint64_t stride = 512;
  Cycles gap = 400;
};
Process mee_stride_walker(Actor& actor, StrideWalkerConfig config,
                          AgentCursor* cursor = nullptr);

/// Sparse protected-region accesses with exponential gaps — the ambient MEE
/// traffic present even in the "no noise" environment.
struct BackgroundConfig {
  VirtAddr base;
  std::uint64_t bytes = 0;
  Cycles mean_gap = 60000;
};
Process background_activity(Actor& actor, BackgroundConfig config,
                            AgentCursor* cursor = nullptr);

}  // namespace meecc::sim
