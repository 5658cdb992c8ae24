#include "runtime/runner.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/mpsc_queue.h"
#include "obs/scope.h"
#include "runtime/bed_pool.h"
#include "runtime/setup_cache.h"
#include "runtime/sink.h"

namespace meecc::runtime {

namespace {

/// Per-in-flight-trial trace buffer: holds one trial's events until the
/// committer replays them into the real sink in trial order. TraceEvent
/// string fields point at static storage by contract, so buffering is
/// safe. Buffers ride the result queue and are recycled through it, so a
/// traced parallel sweep holds one buffer per in-flight trial — not one
/// per campaign trial as the old per-sweep vector did.
class BufferSink : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override { events_.push_back(event); }
  void replay_into(obs::TraceSink& sink) const {
    for (const auto& event : events_) sink.emit(event);
  }
  void clear() { events_.clear(); }

 private:
  std::vector<obs::TraceEvent> events_;
};

/// One finished trial in flight from a worker to the committer. Strings
/// and the trace buffer circulate through the queue's swap-based exchange
/// (see common/mpsc_queue.h), so the steady-state hot path reuses their
/// capacity instead of reallocating per trial.
struct ResultMsg {
  std::size_t index = 0;
  TrialRecord record;
  std::string line;  ///< encoded JSONL + '\n' when streaming
  std::unique_ptr<BufferSink> trace;
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

/// Single-consumer side of the result path: restores trial order with a
/// reorder buffer, replays trace buffers, batches stream commits, and
/// optionally retires records into the caller's vector. Runs inline on
/// the calling thread at jobs<=1 and on the committer thread otherwise —
/// never on more than one thread, so it needs no locks.
class CommitPipeline {
 public:
  CommitPipeline(const RunnerConfig& config, std::vector<TrialRecord>* records)
      : config_(config), records_(records) {
    if (config_.stream != nullptr) batch_.resize(kCommitBatch);
  }

  /// Consumes one finished trial, in any completion order. on_trial fires
  /// here (completion order); everything order-sensitive waits for the
  /// contiguous prefix.
  void feed(ResultMsg& msg) {
    if (config_.on_trial) config_.on_trial(msg.record);
    if (msg.index != next_) {
      pending_.emplace(msg.index, std::move(msg));
      return;
    }
    retire(msg);
    ++next_;
    while (!pending_.empty() && pending_.begin()->first == next_) {
      retire(pending_.begin()->second);
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

  /// Commits whatever in-order lines are batched (partial batch). Called
  /// when the queue runs dry so a slow producer never leaves durable-ready
  /// lines sitting in memory, and from finish().
  void flush_batch() {
    if (batch_used_ == 0) return;
    config_.stream->commit(batch_first_, batch_.data(), batch_used_);
    batch_used_ = 0;
  }

  void finish() { flush_batch(); }

 private:
  /// Trial-order retirement: trace replay, stream batching, record keep.
  void retire(ResultMsg& msg) {
    if (msg.trace && config_.trace_sink != nullptr)
      msg.trace->replay_into(*config_.trace_sink);
    if (config_.stream != nullptr) {
      if (batch_used_ == 0) batch_first_ = msg.index;
      // Swap, not copy: the stale committed line's capacity goes back to
      // the message (and through the queue to a worker).
      batch_[batch_used_].swap(msg.line);
      if (++batch_used_ == kCommitBatch) flush_batch();
    }
    if (records_ != nullptr) (*records_)[msg.index] = std::move(msg.record);
  }

  const RunnerConfig& config_;
  std::vector<TrialRecord>* records_;
  std::size_t next_ = 0;
  /// Results that finished ahead of their turn, keyed by trial index.
  /// Bounded by the in-flight window (queue capacity + jobs), not the
  /// campaign size.
  std::map<std::size_t, ResultMsg> pending_;
  std::vector<std::string> batch_;
  std::size_t batch_first_ = 0;
  std::size_t batch_used_ = 0;
};

/// Results queued from workers to the committer. Small on purpose: it
/// bounds the reorder window (and so peak memory) while staying deep
/// enough that workers never stall on a committer doing a batched write.
constexpr std::size_t kQueueCapacity = 256;

}  // namespace

std::vector<TrialRecord> run_trials(const Experiment& experiment,
                                    const std::vector<TrialSpec>& trials,
                                    const RunnerConfig& config,
                                    SetupStats* stats) {
  std::vector<TrialRecord> records(config.keep_records ? trials.size() : 0);

  unsigned jobs = config.jobs ? config.jobs : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(trials.size(), 1)));

  // Sinks are single-threaded; parallel traced sweeps write each trial's
  // events into a buffer that rides the queue, and the committer replays
  // buffers in trial order.
  const bool buffer_traces = config.trace_sink != nullptr && jobs > 1;
  const bool encode = config.stream != nullptr;

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

  std::atomic<std::uint64_t> bed_recycles{0};
  std::atomic<std::uint64_t> bed_discards{0};
  std::atomic<std::size_t> next{0};
  // First-exception capture: whoever claims the flag stores their
  // exception; everyone else just stops. Rethrown after the joins.
  std::atomic<bool> stop{false};
  std::atomic<bool> error_claimed{false};
  std::exception_ptr first_error;
  auto claim_error = [&] {
    if (!error_claimed.exchange(true)) first_error = std::current_exception();
    stop.store(true, std::memory_order_relaxed);
  };

  CommitPipeline pipeline(config, config.keep_records ? &records : nullptr);

  if (jobs <= 1) {
    // Fully inline: no queue, no threads; trace events go straight to the
    // sink and exceptions from on_trial / stream->commit propagate
    // naturally to the caller.
    BedPool bed_pool;
    ResultMsg msg;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      msg.record = run_one(experiment, trials[i], config.trace_sink, cache_ptr,
                           recycle ? &bed_pool : nullptr);
      msg.index = i;
      if (encode) {
        msg.line.clear();
        append_json_line(msg.line, msg.record);
        msg.line.push_back('\n');
      }
      pipeline.feed(msg);
    }
    pipeline.finish();
    bed_recycles.store(bed_pool.recycles(), std::memory_order_relaxed);
    bed_discards.store(bed_pool.discards(), std::memory_order_relaxed);
  } else {
    // A committer thread is only needed when someone consumes results in
    // a serialized order (stream, on_trial, trace replay); a plain
    // in-memory sweep writes its slot directly and skips the queue.
    const bool use_committer =
        encode || static_cast<bool>(config.on_trial) || buffer_traces;
    MpscQueue<ResultMsg> queue(kQueueCapacity);
    std::atomic<bool> producers_done{false};

    auto worker = [&] {
      BedPool bed_pool;
      try {
        ResultMsg msg;
        for (;;) {
          if (stop.load(std::memory_order_relaxed)) break;
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= trials.size()) break;
          obs::TraceSink* sink = config.trace_sink;
          if (buffer_traces) {
            // Recycle the buffer the queue handed back; allocate only
            // when this worker has none in hand.
            if (msg.trace)
              msg.trace->clear();
            else
              msg.trace = std::make_unique<BufferSink>();
            sink = msg.trace.get();
          }
          msg.record = run_one(experiment, trials[i], sink, cache_ptr,
                               recycle ? &bed_pool : nullptr);
          msg.index = i;
          if (encode) {
            msg.line.clear();
            append_json_line(msg.line, msg.record);
            msg.line.push_back('\n');
          }
          if (use_committer)
            queue.push(msg);
          else if (config.keep_records)
            records[i] = std::move(msg.record);
        }
      } catch (...) {
        claim_error();
      }
      bed_recycles.fetch_add(bed_pool.recycles(), std::memory_order_relaxed);
      bed_discards.fetch_add(bed_pool.discards(), std::memory_order_relaxed);
    };

    auto committer = [&] {
      ResultMsg msg;
      try {
        for (;;) {
          if (queue.try_pop(msg)) {
            pipeline.feed(msg);
            continue;
          }
          // Queue ran dry: push the partial batch out rather than sit on
          // durable-ready lines, then check for shutdown.
          pipeline.flush_batch();
          if (producers_done.load(std::memory_order_acquire)) {
            if (!queue.try_pop(msg)) break;
            pipeline.feed(msg);
            continue;
          }
          std::this_thread::yield();
        }
        pipeline.finish();
      } catch (...) {
        claim_error();
        // Keep draining (and discarding) so producers blocked on a full
        // queue can observe `stop` and exit; only then may we leave.
        for (;;) {
          if (queue.try_pop(msg)) continue;
          if (producers_done.load(std::memory_order_acquire)) {
            if (!queue.try_pop(msg)) break;
          } else {
            std::this_thread::yield();
          }
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs + 1);
    if (use_committer) pool.emplace_back(committer);
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) workers.emplace_back(worker);
    for (auto& thread : workers) thread.join();
    producers_done.store(true, std::memory_order_release);
    for (auto& thread : pool) thread.join();
  }

  if (first_error) std::rethrow_exception(first_error);

  if (stats != nullptr)
    *stats = SetupStats{
        .memory_hits = setup_cache.memory_hits(),
        .disk_hits = setup_cache.disk_hits(),
        .builds = setup_cache.builds(),
        .bed_recycles = bed_recycles.load(std::memory_order_relaxed),
        .bed_discards = bed_discards.load(std::memory_order_relaxed)};
  return records;
}

}  // namespace meecc::runtime
