// Discrete-event simulation kernel on C++20 coroutines.
//
// Agents (trojan, spy, noise generators) are coroutines returning Process.
// Each agent owns a local clock (sim::Actor); the scheduler always resumes
// the agent whose next event time is globally minimal (FIFO tie-break), so
// shared-state mutations — cache fills, MEE walks — happen in global time
// order.
//
// Composition: agent logic factors into Task<T> sub-coroutines (e.g. "run one
// eviction test"). Awaiting a Task starts it immediately (symmetric
// transfer); when the child suspends on a memory operation it parks ITS OWN
// handle in the scheduler, and on completion control transfers straight back
// to the parent. Exceptions propagate parent-ward through await_resume; an
// exception escaping a top-level Process is rethrown out of the scheduler.
//
// Run-ahead: inside the scheduler's own loops (run_until, run_to_completion,
// run_until_flag) an agent whose next event would be strictly earlier than
// every pending event continues inline instead of suspending — that event
// is the next one the loop would dispatch anyway. It still consumes its
// sequence number, counts as scheduled and dispatched and advances the
// clock, so dispatch order and every counter match a one-event-per-step
// drive. step() never runs ahead.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/hub.h"
#include "sim/frame_arena.h"

namespace meecc::sim {

class Scheduler;

/// State shared by every simulation promise type: the stored exception and
/// (for awaited Tasks) the coroutine to resume on completion. The
/// allocation operators route every Process/Task coroutine frame through
/// the thread-local ambient FrameArena (heap fallback when none is
/// installed) — Scheduler::dispatch installs its own arena around each
/// resume, so frames spawned mid-simulation recycle instead of malloc'ing.
struct PromiseBase {
  std::exception_ptr exception;
  std::coroutine_handle<> continuation;

  static void* operator new(std::size_t size) {
    return FrameArena::allocate_ambient(size);
  }
  static void operator delete(void* ptr) noexcept {
    FrameArena::deallocate(ptr);
  }
};

/// Top-level agent coroutine. Fire-and-forget: ownership transfers to the
/// Scheduler via spawn().
class [[nodiscard]] Process {
 public:
  struct promise_type : PromiseBase {
    // Set by Scheduler::spawn so completion can be reported in O(1):
    // `owned_index` is this coroutine's slot in the scheduler's owned list,
    // kept current under swap-removal.
    Scheduler* scheduler = nullptr;
    std::size_t owned_index = 0;

    /// final_suspend awaiter: tells the owning scheduler this agent just
    /// finished (normally or with a stored exception), so dispatch never has
    /// to scan for completed handles. unhandled_exception() runs before
    /// final_suspend, so this single notification covers both outcomes.
    struct FinalNotify {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };

    Process get_return_object() {
      return Process{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalNotify final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Process(Process&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;
  ~Process();

 private:
  friend class Scheduler;
  explicit Process(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

/// final_suspend awaiter that hands control back to whoever awaited us.
struct ResumeContinuation {
  bool await_ready() const noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
    if (auto continuation = h.promise().continuation) return continuation;
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

/// Awaitable sub-coroutine returning T (or void). Must be co_await'ed from a
/// Process or another Task; runs on the awaiting agent's clock.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::ResumeContinuation final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> parent) {
    handle_.promise().continuation = parent;
    return handle_;  // start the child immediately
  }
  T await_resume() {
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
    return std::move(*handle_.promise().value);
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::ResumeContinuation final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// The pending event of an agent removed by Scheduler::cancel(): its time,
/// and where it sat among the events due at that time — the creation seq
/// of its bucket, then its position in the bucket. Events at equal `when`
/// dispatch in (bucket_seq, position) order. A position is read after the
/// events cancelled before it were removed, so comparing two agents
/// cancelled one after the other ranks them correctly when ties on
/// (when, bucket_seq, position) go to the one cancelled first.
struct CancelledEvent {
  Cycles when = 0;
  std::uint64_t bucket_seq = 0;
  std::size_t position = 0;
};

/// Opaque reference to a spawned top-level agent, returned by spawn() and
/// accepted by cancel(). Becomes stale once the agent finishes or is
/// cancelled; cancel() detects staleness (by address, so a recycled frame
/// at the same address could in principle alias — don't hold handles
/// across unrelated spawns) and refuses.
class ProcessHandle {
 public:
  ProcessHandle() = default;

 private:
  friend class Scheduler;
  explicit ProcessHandle(std::coroutine_handle<Process::promise_type> handle)
      : handle_(handle) {}

  std::coroutine_handle<Process::promise_type> handle_;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Takes ownership of the coroutine and schedules its first step at
  /// `start`; the returned handle can cancel the agent later.
  ProcessHandle spawn(Process process, Cycles start = 0);

  /// Destroys a live agent and removes its pending event from the queue
  /// (remaining events keep their sequence numbers, so sibling ordering is
  /// unchanged and no new sequence numbers are consumed), reporting where
  /// that event was. Returns nullopt for a stale handle (agent already
  /// finished or cancelled). Only legal for agents parked in the scheduler
  /// itself — i.e. not mid-await inside a child Task — which holds for
  /// every agent suspended on a memory-op or sleep awaitable at its top
  /// level; such an agent has exactly one pending event.
  std::optional<CancelledEvent> cancel(ProcessHandle handle);

  /// Takes ownership of `process` like spawn(), but as the continuation of
  /// an agent whose pending event at `when` was already counted and
  /// sequenced elsewhere (a snapshot's donor): counts neither des.spawned
  /// nor des.scheduled and consumes no sequence number. Re-arming a
  /// snapshot's agents in their dispatch order, before anything else is
  /// queued, reproduces the donor's queue order exactly.
  ProcessHandle rearm(Process process, Cycles when);

  /// Re-arms `handle` (any simulation coroutine) to resume once `when`
  /// becomes the global minimum. Called by awaitables, not user code.
  /// Inline (with bucket_for) because awaitables call it from headers once
  /// per simulated event — an out-of-line hop here is measurable on the
  /// scheduler.dispatch kernel.
  void enqueue(std::coroutine_handle<> handle, Cycles when) {
    // Events never fire in the past: a stale clock is clamped to `now`.
    // seq_ still advances once per enqueue (snapshot/fork restores it), but
    // the value is no longer stored per event — bucket append order carries
    // the same tie-break.
    scheduled_.inc();
    ++seq_;
    // An event due now may join the draining epoch.
    if (when <= now_) epoch_more_ = true;
    buckets_[bucket_for(std::max(when, now_))].ready.push_back(handle);
    ++pending_;
  }

  /// Runs events with time <= `until`; returns events processed (inline
  /// run-ahead events included). Rethrows the first exception that
  /// escaped a top-level Process.
  std::uint64_t run_until(Cycles until);

  /// Runs until no events remain.
  std::uint64_t run_to_completion();

  /// Runs until `done` becomes true — "until some agent sets a flag",
  /// without a horizon (noise agents run forever). Throws CheckFailure if
  /// the event queue drains, or once an event at or past `max_cycles` has
  /// run, before that. Returns events processed.
  std::uint64_t run_until_flag(const bool& done,
                               Cycles max_cycles = 2'000'000'000ULL);

  /// Dispatches exactly one event; returns false when none remain.
  bool step();

  /// Called by awaitables from await_ready with the time their event would
  /// be enqueued at. True when the caller may continue inline: the loop
  /// running it allows run-ahead, the event is strictly earlier than
  /// every pending one, the loop's horizon admits it and its watched flag
  /// is still clear. The event is then accounted as enqueued and
  /// dispatched on the spot.
  bool try_run_ahead(Cycles when) {
    // Checked first: an event still due in the draining epoch refuses.
    if (epoch_more_ || !ahead_.active) return false;
    when = std::max(when, now_);
    if (when > ahead_.horizon || (ahead_.flag != nullptr && *ahead_.flag) ||
        !finished_.empty())
      return false;
    if (pending_ != 0 && when >= earliest_pending()) return false;
    scheduled_.inc();
    ++seq_;
    dispatched_.inc();
    now_ = when;
    ++ahead_.events;
    return true;
  }

  /// Time of the most recently dispatched event.
  Cycles now() const { return now_; }

  bool idle() const { return pending_ == 0; }

  /// Attaches scheduling counters (des.spawned/scheduled/dispatched) to
  /// `hub` (borrowed; may be nullptr to detach). Called by sim::System.
  void set_hub(obs::Hub* hub);

  /// Spawned agents still owned by the scheduler (finished ones are
  /// reclaimed after the dispatch in which they complete).
  std::size_t live_processes() const { return owned_.size(); }

  /// Next event sequence number — snapshot/fork captures it so a restored
  /// scheduler hands out the same tie-break order as the original.
  std::uint64_t event_seq() const { return seq_; }

  /// Rewinds/forwards the clock and sequence counter onto a snapshot's
  /// values. Only legal on a quiesced scheduler (no events, no agents):
  /// anything still queued would fire against the wrong timeline.
  void restore_clock(Cycles now, std::uint64_t seq);

  /// The arena backing this scheduler's coroutine frames. dispatch()
  /// installs it around every resume; spawn sites install it explicitly
  /// (FrameArena::Scope) so the initial frames land there too.
  FrameArena& arena() { return arena_; }

 private:
  friend struct Process::promise_type::FinalNotify;

  /// Ownership half of spawn()/rearm(): registers the coroutine as owned.
  ProcessHandle adopt(Process process);

  /// What the running loop allows try_run_ahead to do.
  struct RunAhead {
    bool active = false;
    Cycles horizon = 0;          ///< latest event time that may run inline
    const bool* flag = nullptr;  ///< run_until_flag's stop condition
    std::uint64_t events = 0;    ///< inline events so far in this loop
  };
  /// Installs a RunAhead for one loop, restoring the previous one on exit
  /// (exceptions included).
  class RunAheadScope;

  /// Time of the earliest pending event outside the draining epoch
  /// (epoch_more_ stands for those). A stale heap top may under-report
  /// it, which only makes run-ahead more conservative.
  Cycles earliest_pending() const {
    Cycles earliest = ~Cycles{0};
    if (ondeck_slot_ != kNoBucket) earliest = buckets_[ondeck_slot_].when;
    if (!times_.empty()) earliest = std::min(earliest, times_.top().when);
    return earliest;
  }

  /// All events pending at one timestamp, in enqueue order. seq_ increments
  /// monotonically per enqueue, so append order IS sequence order — the
  /// per-event seq the old binary heap stored to break timestamp ties is
  /// implicit in the vector. Slots are recycled through free_buckets_ with
  /// their capacity intact, so a steady-state simulation enqueues and
  /// drains without touching the allocator.
  struct TimeBucket {
    Cycles when = 0;
    std::uint64_t seq = 0;  ///< creation sequence (heap tie-break)
    bool live = false;
    std::vector<std::coroutine_handle<>> ready;
  };

  /// Index of a live bucket for `when` to append to: the one-slot enqueue
  /// memo when it matches, else a freshly created bucket (registered in
  /// times_ or parked on deck) — never a scan. Same-time buckets may
  /// therefore coexist; the heap drains them in creation order, which is
  /// enqueue order.
  std::uint32_t bucket_for(Cycles when) {
    if (enqueue_hint_ < buckets_.size()) {
      const TimeBucket& hint = buckets_[enqueue_hint_];
      if (hint.live && hint.when == when) return enqueue_hint_;
    }
    std::uint32_t slot;
    if (spare_slot_ != kNoBucket) {
      slot = spare_slot_;
      spare_slot_ = kNoBucket;
    } else if (!free_buckets_.empty()) {
      slot = free_buckets_.back();
      free_buckets_.pop_back();
    } else {
      slot = grow_buckets();
    }
    buckets_[slot].when = when;
    buckets_[slot].seq = seq_;
    buckets_[slot].live = true;
    // Keep the bucket on deck instead of in the heap when it is provably
    // the minimum of all non-epoch pending buckets; see ondeck_slot_. Ties
    // go to the heap: the new bucket's larger creation seq sorts it after
    // the incumbent, so (when, seq) order is preserved either way.
    if (ondeck_slot_ == kNoBucket &&
        (times_.empty() || when < times_.top().when)) {
      // top() may be stale, but a stale ref's timestamp is a lower bound
      // for every live entry behind it, so beating it is conclusive.
      ondeck_slot_ = slot;
    } else {
      park_bucket(slot, when);  // out of line: keeps the heap-push template
                                // code off this always-hot path
    }
    enqueue_hint_ = slot;
    return slot;
  }

  /// Registers a freshly created bucket in times_ (or swaps it with the
  /// on-deck bucket when it is strictly earlier). The cold half of
  /// bucket_for.
  void park_bucket(std::uint32_t slot, Cycles when);

  /// Appends a new TimeBucket slot (vector growth — cold).
  std::uint32_t grow_buckets();

  /// Hands out the next runnable handle in (when, seq) order, or nullptr.
  /// Drains the active epoch flat (no heap ops between same-time events),
  /// retiring it and popping the next timestamp off times_ when it runs
  /// dry. With `limited`, events after `limit` stay queued.
  std::coroutine_handle<> take_next(bool limited, Cycles limit);

  /// The cold tail of take_next: retires a drained epoch and opens the next
  /// bucket (on deck, or popped from the heap past stale entries),
  /// returning its first event.
  std::coroutine_handle<> take_next_cold(bool limited, Cycles limit);

  void retire_epoch();

  void dispatch(std::coroutine_handle<> handle);

  /// Called from FinalNotify::await_suspend when a top-level agent reaches
  /// its final suspend point.
  void note_finished(std::coroutine_handle<Process::promise_type> handle) {
    finished_.push_back(handle);
  }

  /// Destroys the agents recorded by note_finished: swap-removes each from
  /// `owned_` (patching the displaced entry's owned_index), then rethrows
  /// the first stored exception. O(finished) — independent of how many
  /// agents were ever spawned.
  void reap_finished();

  /// Declared first so it outlives everything else during destruction; the
  /// destructor body destroys the owned coroutine frames, which return
  /// their blocks here.
  FrameArena arena_;
  /// Heap entry: a pending timestamp and the bucket slot created for it.
  /// Revalidated at pop time (live, matching when AND creation seq) —
  /// cancel() can empty a bucket and recycle its slot, leaving stale
  /// entries that are skipped lazily; the seq check keeps a recycled slot's
  /// new tenant from being drained through an old entry out of order.
  struct TimeRef {
    Cycles when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const TimeRef& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  /// Epoch queue: a min-heap of (timestamp, creation seq) pairs plus one
  /// TimeBucket of handles per entry. Advancing time pops the earliest
  /// entry and drains its bucket as a flat run queue (the "epoch").
  /// Same-time buckets chain in creation order, so events still run in
  /// global (when, enqueue) order — the enqueue memo makes bursts of
  /// same-time events share one bucket, and an event enqueued at the
  /// epoch's own time lands either in the draining bucket (memo hit) or in
  /// a successor bucket drained at the same timestamp right after it;
  /// either way the dispatch order matches the old (when, seq) heap.
  std::priority_queue<TimeRef, std::vector<TimeRef>, std::greater<>> times_;
  std::vector<TimeBucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  /// On-deck fast path: the one bucket that is provably the global minimum
  /// among non-epoch pending buckets, held OUTSIDE the heap. A bucket lands
  /// here when it is created with the heap empty (any younger bucket sorts
  /// after it); it is demoted into the heap when a strictly earlier bucket
  /// appears. In the dominant serial regime — each dispatch enqueues one
  /// event at a strictly later time — every epoch transition is
  /// retire + open-on-deck with zero heap traffic, which is what keeps
  /// scheduler.dispatch near the pre-epoch-queue cost.
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
  std::uint32_t ondeck_slot_ = kNoBucket;
  /// One-slot fast free list in front of free_buckets_: the fused
  /// retire+open rotation parks the retired slot here and the very next
  /// bucket_for reclaims it, skipping the vector round trip.
  std::uint32_t spare_slot_ = kNoBucket;
  /// One-slot memo: the most recently created bucket, checked first on
  /// every enqueue. Always the newest bucket for its timestamp (creation is
  /// the only assignment), so a memo hit never appends behind a younger
  /// same-time bucket.
  std::uint32_t enqueue_hint_ = 0;
  std::uint32_t epoch_slot_ = 0;  ///< draining bucket, when epoch_active_
  std::size_t epoch_pos_ = 0;     ///< next undispatched entry in the epoch
  bool epoch_active_ = false;
  /// False only when the draining epoch certainly has no undispatched
  /// entry: set from the bucket whenever take_next hands one out, and
  /// raised by any enqueue at the current time. Lets try_run_ahead see an
  /// event still due now without reading the bucket.
  bool epoch_more_ = false;
  std::size_t pending_ = 0;  ///< queued, not-yet-dispatched events
  std::vector<std::coroutine_handle<Process::promise_type>> owned_;
  std::vector<std::coroutine_handle<Process::promise_type>> finished_;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  RunAhead ahead_;
  obs::Counter spawned_;
  obs::Counter scheduled_;
  obs::Counter dispatched_;
};

/// Awaitable that re-enters the scheduler and resumes at `when`.
struct WakeAt {
  Scheduler& scheduler;
  Cycles when;

  bool await_ready() { return scheduler.try_run_ahead(when); }
  void await_suspend(std::coroutine_handle<> h) { scheduler.enqueue(h, when); }
  void await_resume() const noexcept {}
};

}  // namespace meecc::sim
