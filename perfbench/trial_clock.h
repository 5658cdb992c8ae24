// Item latency for the two workloads that run through runtime::run_trials:
// each trial is timed from the entry of a wrapped Experiment::run to the
// trial's on_trial callback. The span between the end of run and on_trial
// is the runtime's hand-off (encode, queue, reorder, commit).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "report.h"
#include "runtime/experiment.h"
#include "runtime/runner.h"

namespace meecc::perfbench {

class TrialClock {
 public:
  using Body = std::function<runtime::TrialResult(const runtime::TrialSpec&)>;

  TrialClock() = default;
  /// wrap() hands out experiments that point at this clock.
  TrialClock(const TrialClock&) = delete;
  TrialClock& operator=(const TrialClock&) = delete;

  /// Clears the stamps for a round of `trials` trials (indexed by
  /// TrialSpec::trial_index, which must be below `trials`).
  void reset(std::size_t trials) {
    start_.assign(trials, {});
    end_.assign(trials, {});
    done_.assign(trials, {});
  }

  /// `experiment` with its run replaced by `body` timed at entry and exit.
  /// Workers write distinct slots; the runner's queue orders each write
  /// before the matching on_trial call, and the join before any read here.
  runtime::Experiment wrap(const runtime::Experiment& experiment, Body body) {
    runtime::Experiment timed = experiment;
    timed.run = [this, body = std::move(body)](const runtime::TrialSpec& spec) {
      start_.at(spec.trial_index) = Clock::now();
      runtime::TrialResult result = body(spec);
      end_.at(spec.trial_index) = Clock::now();
      return result;
    };
    return timed;
  }

  /// To be called from RunnerConfig::on_trial.
  void done(const runtime::TrialRecord& record) {
    done_.at(record.spec.trial_index) = Clock::now();
  }

  /// Adds the round's per-trial latencies (run entry to on_trial) to `log`.
  void add_latency(LatencyLog& log) const {
    std::vector<double> ms(start_.size());
    for (std::size_t i = 0; i < start_.size(); ++i)
      ms[i] = 1e3 * seconds_between(start_[i], done_[i]);
    log.add_round(ms);
  }

  /// Adds each trial's runtime.trial span (parent of the `children` spans
  /// with its item id) and runtime.handoff span to `log`.
  struct Child {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t item;
  };
  void append_spans(SpanLog& log, const std::vector<Child>& children,
                    std::uint64_t item_base) const {
    std::size_t next_child = 0;
    for (std::size_t i = 0; i < start_.size(); ++i) {
      const std::uint32_t trial =
          log.add("runtime.trial", start_[i], end_[i], SpanLog::kNoParent,
                  item_base + i);
      for (; next_child < children.size() && children[next_child].item == i;
           ++next_child) {
        const Child& c = children[next_child];
        log.add(c.name, c.start, c.end, trial, item_base + i);
      }
      log.add("runtime.handoff", end_[i], done_[i], SpanLog::kNoParent,
              item_base + i);
    }
  }

 private:
  std::vector<Clock::time_point> start_;
  std::vector<Clock::time_point> end_;
  std::vector<Clock::time_point> done_;
};

}  // namespace meecc::perfbench
