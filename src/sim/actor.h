// Actor: the per-agent execution context — a core binding, a CPU mode, a
// virtual address space, and a local clock — plus the awaitable "ISA" the
// agent coroutines program against (read / write / clflush / mfence / timers
// / busy-wait).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "mem/page_table.h"
#include "sim/des.h"
#include "sim/system.h"
#include "sim/timer.h"

namespace meecc::sim {

class Actor;

/// Awaitable performing one memory operation. Suspends so the scheduler can
/// order it against other agents — or, when it is the next event anyway,
/// runs ahead without suspending (Scheduler::try_run_ahead) — then executes
/// at this actor's local time.
class MemOpAwaitable {
 public:
  enum class Op { kRead, kWrite, kFlush };

  MemOpAwaitable(Actor& actor, Op op, VirtAddr addr, const mem::Line* data);

  bool await_ready();
  void await_suspend(std::coroutine_handle<> handle);
  AccessResult await_resume();

 private:
  Actor& actor_;
  Op op_;
  VirtAddr addr_;
  mem::Line data_{};
};

class Actor {
 public:
  Actor(System& system, CoreId core, CpuMode mode);

  // -- awaitable operations (must be co_await'ed) ---------------------------
  MemOpAwaitable read(VirtAddr addr) {
    return {*this, MemOpAwaitable::Op::kRead, addr, nullptr};
  }
  MemOpAwaitable write(VirtAddr addr, const mem::Line& data) {
    return {*this, MemOpAwaitable::Op::kWrite, addr, &data};
  }
  MemOpAwaitable clflush(VirtAddr addr) {
    return {*this, MemOpAwaitable::Op::kFlush, addr, nullptr};
  }
  /// Yields to the scheduler and resumes once `when` is the global minimum.
  WakeAt sleep_until(Cycles when);
  WakeAt sleep_for(Cycles duration) { return sleep_until(now_ + duration); }

  // -- plain operations (local clock only, no scheduler round-trip) ---------
  /// Memory fence: ordering is implicit in the DES model; costs cycles.
  void mfence();
  /// Timestamp read through `timer`; advances the clock by the read cost.
  /// Native rdtsc in enclave mode throws ModeViolation (SGX v1, paper §3.4).
  Cycles read_timer(const TimerModel& timer);
  /// Spin until the local clock reaches `target` (no yield needed: pure
  /// local work cannot affect other agents).
  void busy_wait_until(Cycles target);

  Cycles now() const { return now_; }
  void advance(Cycles cycles) { now_ += cycles; }
  /// Forces the local clock — snapshot restore only, the one place time may
  /// move backwards (recycling a bed rewinds its actors to the snapshot).
  void restore_clock(Cycles now) { now_ = now; }

  System& system() { return system_; }
  Scheduler& scheduler() { return system_.scheduler(); }
  CoreId core() const { return core_; }
  CpuMode mode() const { return mode_; }
  mem::VirtualAddressSpace& vas() { return vas_; }
  const mem::VirtualAddressSpace& vas() const { return vas_; }
  Rng& rng() { return rng_; }

 private:
  friend class MemOpAwaitable;

  System& system_;
  CoreId core_;
  CpuMode mode_;
  mem::VirtualAddressSpace vas_;
  Cycles now_ = 0;
  Rng rng_;
};

inline bool MemOpAwaitable::await_ready() {
  return actor_.scheduler().try_run_ahead(actor_.now());
}

}  // namespace meecc::sim
