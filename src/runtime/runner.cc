#include "runtime/runner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/scope.h"
#include "runtime/bed_pool.h"
#include "runtime/setup_cache.h"
#include "runtime/sink.h"

namespace meecc::runtime {

namespace {

/// One trial's trace events, held in its slot until retirement replays
/// them into the real sink in trial order. TraceEvent string fields point
/// at static storage by contract, so buffering is safe.
class BufferSink : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override { events_.push_back(event); }
  void replay_into(obs::TraceSink& sink) const {
    for (const auto& event : events_) sink.emit(event);
  }

 private:
  std::vector<obs::TraceEvent> events_;
};

/// One position of the result ring. Every trial that maps to the slot
/// reuses its record and line, so their capacity carries over from trial
/// to trial.
struct Slot {
  TrialRecord record;
  std::string line;  ///< encoded JSONL + '\n' when streaming
  /// The trial's trace events at jobs > 1, from run to retirement only: a
  /// trace can run to millions of events, so retired slots keep none.
  std::unique_ptr<BufferSink> trace;
  bool ready = false;  ///< guarded by the ring mutex
};

TrialRecord run_one(const Experiment& experiment, const TrialSpec& spec,
                    obs::TraceSink* trace_sink, SetupCache* setup_cache,
                    BedPool* bed_pool) {
  TrialRecord record;
  record.spec = spec;
  // Ambient contexts: every System the trial constructs inherits the trace
  // sink and deposits its counters into the scope on destruction
  // (including during unwinding when the trial throws), and
  // memoized_setup() calls inside run() reach the sweep's SetupCache.
  TrialContext context(setup_cache, bed_pool);
  obs::TrialScope scope(trace_sink);
  try {
    record.result = experiment.run(spec);
    record.ok = true;
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  record.counters = scope.take_counters();
  return record;
}

}  // namespace

unsigned resolve_jobs(unsigned jobs, std::size_t trials) {
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  return static_cast<unsigned>(
      std::clamp<std::size_t>(jobs, 1, std::max<std::size_t>(trials, 1)));
}

std::vector<TrialRecord> run_trials(const Experiment& experiment,
                                    std::span<const TrialSpec> trials,
                                    const RunnerConfig& config,
                                    SetupStats* stats) {
  const unsigned jobs = resolve_jobs(config.jobs, trials.size());
  const bool encode = config.stream != nullptr;
  std::vector<TrialRecord> records(encode ? 0 : trials.size());

  // Setup reuse is off while tracing: setup-phase events would fire once
  // per shared state instead of once per trial, breaking trace diffs.
  const bool reuse =
      config.reuse_setup && experiment.setup_key && config.trace_sink == nullptr;
  SetupCache setup_cache;
  if (reuse) setup_cache.attach_store(config.setup_store);
  SetupCache* cache_ptr = reuse ? &setup_cache : nullptr;
  // Bed recycling is also off while tracing — a recycled bed skips the
  // construction-phase events a fresh one would emit.
  const bool recycle = config.recycle_systems && config.trace_sink == nullptr;

  // jobs=1 retires each trial right after running it, so one slot will do.
  const std::size_t ring =
      std::min(jobs == 1 ? std::size_t{1} : kTrialWindow, trials.size());
  std::vector<Slot> slots(ring);

  // Runs trials[i] into its slot. Sinks are single-threaded, so at jobs > 1
  // the trial's events go to the slot's buffer instead of the sink.
  const auto fill = [&](Slot& slot, std::size_t i, BedPool& bed_pool) {
    obs::TraceSink* sink = config.trace_sink;
    if (sink != nullptr && jobs > 1) {
      slot.trace = std::make_unique<BufferSink>();
      sink = slot.trace.get();
    }
    slot.record = run_one(experiment, trials[i], sink, cache_ptr,
                          recycle ? &bed_pool : nullptr);
    if (encode) {
      slot.line.clear();
      append_json_line(slot.line, slot.record);
      slot.line.push_back('\n');
    }
  };

  std::vector<std::string> batch(encode ? kCommitBatch : 0);
  std::size_t batch_first = 0;
  std::size_t batch_used = 0;
  const auto flush = [&] {
    if (batch_used == 0) return;
    config.stream->commit(batch_first, batch.data(), batch_used);
    batch_used = 0;
  };

  // Ring state shared with the workers, all guarded by `mutex`: trials
  // [0, retired) are retired, a slot is ready once its trial has run, and
  // the first worker or retirer exception stops the sweep.
  std::mutex mutex;
  std::condition_variable slot_ready;  // the retirer waits here
  std::condition_variable slot_free;   // workers wait here
  std::size_t retired = 0;
  bool stop = false;
  std::exception_ptr error;
  std::uint64_t bed_recycles = 0;
  std::uint64_t bed_discards = 0;
  const auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard lock(mutex);
      if (!error) error = std::move(e);
      stop = true;
    }
    slot_ready.notify_all();
    slot_free.notify_all();
  };

  // The calling thread's retirement loop. At jobs=1 it also runs each
  // trial; otherwise it waits for the trial's slot, pushing out the
  // partial batch first so lines never sit behind a slow trial.
  BedPool caller_pool;
  const auto retire_all = [&] {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      Slot& slot = slots[i % ring];
      if (jobs == 1) {
        fill(slot, i, caller_pool);
      } else {
        std::unique_lock lock(mutex);
        if (!slot.ready) {
          lock.unlock();
          flush();
          lock.lock();
        }
        slot_ready.wait(lock, [&] { return stop || slot.ready; });
        if (stop) return;
      }
      if (config.on_trial) config.on_trial(slot.record);
      if (slot.trace) {
        slot.trace->replay_into(*config.trace_sink);
        slot.trace.reset();
      }
      if (encode) {
        if (batch_used == 0) batch_first = i;
        // Swap, not copy: the committed line's capacity goes back to the
        // slot for its next trial.
        batch[batch_used].swap(slot.line);
        if (++batch_used == kCommitBatch) flush();
      } else {
        records[i] = std::move(slot.record);
      }
      if (jobs > 1) {
        {
          std::lock_guard lock(mutex);
          slot.ready = false;
          ++retired;
        }
        slot_free.notify_all();
      }
    }
    flush();
  };

  // A worker may run trial i only once trial i - ring has retired and
  // freed the slot. The worker holding the oldest unretired trial always
  // passes that check, so the ring cannot deadlock.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    BedPool bed_pool;
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= trials.size()) break;
        Slot& slot = slots[i % ring];
        {
          std::unique_lock lock(mutex);
          slot_free.wait(lock, [&] { return stop || i < retired + ring; });
          if (stop) break;
        }
        fill(slot, i, bed_pool);
        {
          std::lock_guard lock(mutex);
          slot.ready = true;
        }
        slot_ready.notify_one();
      }
    } catch (...) {
      fail(std::current_exception());
    }
    std::lock_guard lock(mutex);
    bed_recycles += bed_pool.recycles();
    bed_discards += bed_pool.discards();
  };

  if (jobs == 1) {
    retire_all();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    try {
      for (unsigned t = 0; t < jobs; ++t) workers.emplace_back(worker);
      retire_all();
    } catch (...) {
      fail(std::current_exception());
    }
    for (auto& thread : workers) thread.join();
    if (error) std::rethrow_exception(error);
  }

  if (stats != nullptr)
    *stats = SetupStats{
        .memory_hits = setup_cache.memory_hits(),
        .disk_hits = setup_cache.disk_hits(),
        .builds = setup_cache.builds(),
        .bed_recycles = bed_recycles + caller_pool.recycles(),
        .bed_discards = bed_discards + caller_pool.discards()};
  return records;
}

}  // namespace meecc::runtime
