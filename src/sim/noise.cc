#include "sim/noise.h"

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <utility>

#include "common/check.h"

namespace meecc::sim {

VirtAddr map_general_buffer(Actor& actor, VirtAddr base, std::uint64_t bytes) {
  MEECC_CHECK(base.page_offset() == 0);
  MEECC_CHECK(bytes % kPageSize == 0);
  auto& allocator = actor.system().general_allocator();
  for (std::uint64_t off = 0; off < bytes; off += kPageSize)
    actor.vas().map_page(base + off, allocator.allocate_frame());
  return base;
}

namespace {

/// Awaits `op`, except on the first step of an agent re-armed from a
/// snapshot: the scheduler already holds the event its donor was parked
/// on, and this dispatch is that event, so the op completes in place.
template <typename Op>
struct Resumable {
  Op op;
  bool& resume;

  bool await_ready() { return resume || op.await_ready(); }
  void await_suspend(std::coroutine_handle<> handle) {
    op.await_suspend(handle);
  }
  auto await_resume() {
    resume = false;
    return op.await_resume();
  }
};

template <typename Op>
Resumable<Op> resumable(Op op, AgentCursor& cursor) {
  return Resumable<Op>{std::move(op), cursor.resume};
}

}  // namespace

// Each loop below keeps the draw order of a plain read → flush → sleep
// loop; the cursor only records where it is. A re-armed agent enters
// mid-iteration at cursor.op; one woken from a sleep starts the next
// iteration.

Process memory_stressor(Actor& actor, StressorConfig config,
                        AgentCursor* cursor) {
  MEECC_CHECK(config.bytes >= kLineSize);
  const std::uint64_t lines = config.bytes / kLineSize;
  AgentCursor own;
  AgentCursor& at = cursor != nullptr ? *cursor : own;
  if (at.op == AgentCursor::Op::kStart) at.resume = false;
  for (;;) {
    if (!at.resume) {
      at.target = config.base + actor.rng().next_below(lines) * kLineSize;
      at.op = AgentCursor::Op::kRead;
    }
    if (at.op == AgentCursor::Op::kRead) {
      co_await resumable(actor.read(at.target), at);
      at.op = actor.rng().chance(config.flush_probability)
                  ? AgentCursor::Op::kFlush
                  : AgentCursor::Op::kSleep;
    }
    if (at.op == AgentCursor::Op::kFlush) {
      co_await resumable(actor.clflush(at.target), at);
      at.op = AgentCursor::Op::kSleep;
    }
    if (at.resume) {
      at.resume = false;  // re-armed asleep: this dispatch is the wake-up
      continue;
    }
    co_await actor.sleep_for(config.gap);
  }
}

Process mee_stride_walker(Actor& actor, StrideWalkerConfig config,
                          AgentCursor* cursor) {
  MEECC_CHECK(config.bytes >= config.stride);
  MEECC_CHECK(config.stride >= kLineSize);
  AgentCursor own;
  AgentCursor& at = cursor != nullptr ? *cursor : own;
  if (at.op == AgentCursor::Op::kStart) at.resume = false;
  for (;;) {
    if (!at.resume) {
      at.target = config.base + at.offset;
      at.op = AgentCursor::Op::kRead;
    }
    if (at.op == AgentCursor::Op::kRead) {
      co_await resumable(actor.read(at.target), at);
      at.op = AgentCursor::Op::kFlush;
    }
    if (at.op == AgentCursor::Op::kFlush) {
      // Flush so the next lap reaches the MEE again instead of hitting in
      // L1.
      co_await resumable(actor.clflush(at.target), at);
      at.offset += config.stride;
      if (at.offset + kLineSize > config.bytes) {
        // Shift the column by one 512 B chunk per lap so a large-stride
        // walk sweeps every versions-line alias family over time, as a
        // real program touching whole pages would.
        ++at.lap;
        at.offset = (at.lap * kChunkSize) % config.stride;
      }
      at.op = AgentCursor::Op::kSleep;
    }
    if (at.resume) {
      at.resume = false;
      continue;
    }
    co_await actor.sleep_for(config.gap);
  }
}

Process background_activity(Actor& actor, BackgroundConfig config,
                            AgentCursor* cursor) {
  MEECC_CHECK(config.bytes >= kLineSize);
  const std::uint64_t lines = config.bytes / kLineSize;
  AgentCursor own;
  AgentCursor& at = cursor != nullptr ? *cursor : own;
  if (at.op == AgentCursor::Op::kStart) at.resume = false;
  for (;;) {
    if (!at.resume) {
      at.target = config.base + actor.rng().next_below(lines) * kLineSize;
      at.op = AgentCursor::Op::kRead;
    }
    if (at.op == AgentCursor::Op::kRead) {
      co_await resumable(actor.read(at.target), at);
      at.op = AgentCursor::Op::kFlush;
    }
    if (at.op == AgentCursor::Op::kFlush) {
      co_await resumable(actor.clflush(at.target), at);
      at.op = AgentCursor::Op::kSleep;
    }
    if (at.resume) {
      at.resume = false;
      continue;
    }
    // Exponential inter-arrival times around the configured mean.
    const double u = std::max(actor.rng().next_double(), 1e-12);
    const auto gap = static_cast<Cycles>(
        -std::log(u) * static_cast<double>(config.mean_gap));
    co_await actor.sleep_for(gap);
  }
}

}  // namespace meecc::sim
