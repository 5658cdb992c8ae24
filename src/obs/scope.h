// TrialScope: the ambient observability context of one experiment trial.
//
// The runner installs a TrialScope (thread-local) around experiment.run();
// every sim::System constructed inside picks up the scope's trace sink,
// and absorbs its counter registry into the scope when destroyed. The
// experiment code itself never mentions observability — counters arrive in
// the TrialRecord "for free", and a trial that builds several Systems
// (fig6 builds two machines) gets their counters merged.
//
// Scopes nest (a stack per thread) but normal use is one per trial.
#pragma once

#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"

namespace meecc::obs {

class TrialScope {
 public:
  explicit TrialScope(TraceSink* trace_sink = nullptr);
  ~TrialScope();

  TrialScope(const TrialScope&) = delete;
  TrialScope& operator=(const TrialScope&) = delete;

  /// Innermost scope on this thread, or nullptr.
  static TrialScope* current();

  /// Merges `registry`'s counters into the scope's accumulated snapshot.
  void absorb(const Registry& registry);

  /// Everything absorbed so far, sorted by counter name.
  const CounterSnapshot& counters() const { return counters_; }

  /// Moves the absorbed counters out, leaving the scope empty.
  CounterSnapshot take_counters() { return std::move(counters_); }

  TraceSink* trace_sink() const { return trace_sink_; }

 private:
  TrialScope* previous_;
  TraceSink* trace_sink_;
  CounterSnapshot counters_;
};

}  // namespace meecc::obs
