// The parallel trial runner.
//
// Each trial builds its own sim::System from its TrialSpec, so trials share
// no mutable state and the pool is embarrassingly parallel. Every trial's
// seed comes from the spec, so output is bit-identical at any job count.
//
// Results leave the pool through one bounded window: a fixed ring of
// kTrialWindow slots indexed by trial % kTrialWindow. A worker claims
// trial i, waits until trial i - kTrialWindow has retired, then runs the
// trial, encodes its JSONL line into slot i and marks the slot ready. The
// calling thread alone retires slots in trial order: it fires on_trial,
// replays the trace, and either batches the line into the ResultStream or
// moves the record into the returned vector. At most kTrialWindow trials
// are ever in flight, so peak memory is independent of trial count, and
// the worker holding the oldest unretired trial always passes its own
// window check, so the ring cannot deadlock. At jobs=1 no thread starts:
// the caller runs each trial into the slot and retires it at once.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "runtime/experiment.h"

namespace meecc::runtime {

class SetupStore;

struct TrialRecord {
  TrialSpec spec;
  TrialResult result;  ///< valid when ok
  bool ok = false;
  std::string error;  ///< exception text when !ok
  /// Every counter of every System the trial built, merged and sorted.
  /// Collected via the ambient obs::TrialScope the runner installs —
  /// experiments never mention observability. Empty when the trial built
  /// no System.
  obs::CounterSnapshot counters;
};

/// Consumer of the streaming result path. The runner calls commit() with
/// newline-terminated JSONL lines (append_json_line bytes) covering trial
/// positions [first, first + count) of the trials vector passed to
/// run_trials — always contiguous, always in order, each position exactly
/// once across the run. Calls arrive on the thread that called run_trials.
/// An exception thrown from commit() stops the sweep and rethrows from
/// run_trials.
class ResultStream {
 public:
  virtual ~ResultStream() = default;
  virtual void commit(std::size_t first, const std::string* lines,
                      std::size_t count) = 0;
};

struct RunnerConfig {
  unsigned jobs = 1;  ///< worker threads; 0 means hardware_concurrency()
  /// Retirement callback (progress reporting). Called in trial order on
  /// the thread that called run_trials, before the trial's line reaches
  /// the stream. An exception thrown here stops the sweep and rethrows
  /// from run_trials.
  std::function<void(const TrialRecord&)> on_trial;
  /// Streaming consumer (see ResultStream). Non-null turns on worker-side
  /// JSONL encoding; lines are committed in trial-order batches of up to
  /// kCommitBatch, and run_trials returns no records — each one is dropped
  /// after on_trial, so memory stays bounded for million-trial campaigns.
  ResultStream* stream = nullptr;
  /// Borrowed trace sink. Sinks are single-threaded by contract; with
  /// jobs > 1 each trial's events go to its slot's buffer and are replayed
  /// into the sink at retirement, in trial order, so traced sweeps
  /// parallelize and the output is byte-identical to jobs=1.
  obs::TraceSink* trace_sink = nullptr;
  /// Reuse warm setup state across trials sharing an Experiment::setup_key
  /// (snapshot/fork execution). Ignored for experiments without a
  /// setup_key, and disabled automatically while tracing: setup-phase
  /// trace events fire once per shared state, not once per trial, so a
  /// reused --trace run would not diff clean against a fresh one.
  bool reuse_setup = true;
  /// Borrowed on-disk setup tier (setup_store.h); attached to the sweep's
  /// SetupCache when reuse is active, so warm states survive the process
  /// and are shared across shards. Null = in-memory reuse only.
  SetupStore* setup_store = nullptr;
  /// Recycle TestBeds across trials (bed_pool.h): each worker keeps its
  /// last few beds and rewinds them in place instead of reconstructing.
  /// A recycled bed is observationally identical to a fresh one, so this
  /// only changes speed; `--no-recycle-systems` clears it for A/B runs.
  /// Disabled automatically while tracing, like reuse_setup.
  bool recycle_systems = true;
};

/// Most in-order lines one ResultStream::commit call receives (one flush +
/// one watermark update per batch on the campaign path).
inline constexpr std::size_t kCommitBatch = 64;

/// Slots in the result ring: at most this many trials are claimed but not
/// yet retired at any moment, whatever the job count or thread timing.
inline constexpr std::size_t kTrialWindow = 256;

/// Sweep-wide setup-reuse statistics (zeros when reuse was off). A warm
/// state is resolved exactly one way per (process, key): found in memory,
/// loaded from the attached SetupStore, or built fresh.
struct SetupStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t builds = 0;
  /// Trials that rewound a pooled bed instead of constructing one, and
  /// pooled beds that had to be thrown away (failed rewind or eviction).
  std::uint64_t bed_recycles = 0;
  std::uint64_t bed_discards = 0;
};

/// Worker threads run_trials uses for `jobs` (0 = hardware concurrency)
/// over `trials` trials: at least 1, at most max(trials, 1).
unsigned resolve_jobs(unsigned jobs, std::size_t trials);

/// Runs every trial through experiment.run. A throwing trial is recorded
/// (ok=false, error=what()) without aborting the sweep; an exception from
/// on_trial or stream->commit stops the sweep and rethrows here after the
/// workers join. Returns the records in trial order when config.stream is
/// null, and an empty vector otherwise. `stats`, when non-null, receives
/// the sweep's setup-cache resolution counts.
std::vector<TrialRecord> run_trials(const Experiment& experiment,
                                    std::span<const TrialSpec> trials,
                                    const RunnerConfig& config,
                                    SetupStats* stats = nullptr);

}  // namespace meecc::runtime
