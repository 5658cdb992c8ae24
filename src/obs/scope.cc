#include "obs/scope.h"

#include "common/check.h"

namespace meecc::obs {

namespace {
thread_local TrialScope* g_current = nullptr;
}  // namespace

TrialScope::TrialScope(TraceSink* trace_sink)
    : previous_(g_current), trace_sink_(trace_sink) {
  g_current = this;
}

TrialScope::~TrialScope() {
  MEECC_CHECK(g_current == this);  // scopes must unwind LIFO
  g_current = previous_;
}

TrialScope* TrialScope::current() { return g_current; }

void TrialScope::absorb(const Registry& registry) {
  if (counters_.empty())
    counters_ = registry.snapshot();
  else
    merge_into(counters_, registry.snapshot());
}

}  // namespace meecc::obs
