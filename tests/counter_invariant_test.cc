// Property tests over the observability counters: structural invariants
// that must hold for ANY workload (the counters cross-check the simulator's
// own bookkeeping), plus the determinism contract — counters are part of
// the trial record, so they must be bit-identical at any --jobs count.
#include <gtest/gtest.h>

#include "channel/latency_survey.h"
#include "channel/testbed.h"
#include "obs/counters.h"
#include "runtime/experiments.h"
#include "runtime/registry.h"
#include "runtime/runner.h"
#include "runtime/sweep.h"

namespace meecc {
namespace {

obs::CounterSnapshot survey_counters(std::uint64_t seed) {
  channel::TestBed bed(channel::default_testbed_config(seed));
  channel::LatencySurveyConfig config;
  config.samples_per_stride = 60;
  channel::run_latency_survey(bed, config);
  return bed.system().hub().registry().snapshot();
}

std::uint64_t value(const obs::CounterSnapshot& s, std::string_view name) {
  return obs::snapshot_value(s, name);
}

TEST(CounterInvariants, CacheLevelsAccountForEveryAccess) {
  const auto counters = survey_counters(7);

  // Every do_read/do_write is exactly one L1 access...
  EXPECT_EQ(value(counters, "cache.l1.hits") + value(counters, "cache.l1.misses"),
            value(counters, "sys.reads") + value(counters, "sys.writes"));
  // ...every L1 miss is exactly one L2 access, every L2 miss one LLC access.
  EXPECT_EQ(value(counters, "cache.l2.hits") + value(counters, "cache.l2.misses"),
            value(counters, "cache.l1.misses"));
  EXPECT_EQ(value(counters, "cache.llc.hits") +
                value(counters, "cache.llc.misses"),
            value(counters, "cache.l2.misses"));
  // The workload actually exercised the hierarchy.
  EXPECT_GT(value(counters, "sys.reads"), 0u);
  EXPECT_GT(value(counters, "cache.l1.misses"), 0u);
}

TEST(CounterInvariants, MeeStopLevelsSumToWalks) {
  const auto counters = survey_counters(11);

  const std::uint64_t stops = obs::snapshot_total(counters, "mee.stop.");
  const std::uint64_t walks =
      value(counters, "mee.read_walks") + value(counters, "mee.write_walks");
  EXPECT_GT(stops, 0u);
  // Every walk stops at exactly one level.
  EXPECT_EQ(stops, walks);
  // The per-core split partitions the same walks.
  std::uint64_t per_core = 0;
  for (const auto& sample : counters)
    if (sample.name.view().starts_with("mee.core") &&
        sample.name.view().find(".stop.") != std::string::npos)
      per_core += sample.value;
  EXPECT_EQ(per_core, stops);
  // Versions-class MEE-cache lookups happen once per walk too.
  EXPECT_EQ(value(counters, "mee.cache.versions_class.hits") +
                value(counters, "mee.cache.versions_class.misses"),
            walks);
}

TEST(CounterInvariants, ReadWalksEqualProtectedDramReads) {
  const auto counters = survey_counters(13);
  // The MEE sits in front of the protected region: every protected-region
  // DRAM read is one read walk, and nothing else triggers one.
  EXPECT_EQ(value(counters, "mee.read_walks"),
            value(counters, "dram.protected_reads"));
  EXPECT_GT(value(counters, "dram.protected_reads"), 0u);
  // Protected reads are a subset of all DRAM reads.
  EXPECT_LE(value(counters, "dram.protected_reads"),
            value(counters, "dram.reads"));
}

TEST(CounterInvariants, DesDispatchBookkeeping) {
  const auto counters = survey_counters(17);
  EXPECT_GT(value(counters, "des.spawned"), 0u);
  // Every dispatched event was scheduled first (some may still be queued).
  EXPECT_LE(value(counters, "des.dispatched"), value(counters, "des.scheduled"));
  EXPECT_GT(value(counters, "des.dispatched"), 0u);
}

// MeeStats is no longer parallel bookkeeping: stats() is DERIVED from the
// obs counters, so the struct and the registry can never drift. Assert the
// derivation reads back the same numbers the snapshot reports.
TEST(CounterInvariants, MeeStatsAreDerivedFromTheCounters) {
  channel::TestBed bed(channel::default_testbed_config(19));
  channel::LatencySurveyConfig config;
  config.samples_per_stride = 60;
  channel::run_latency_survey(bed, config);

  const auto counters = bed.system().hub().registry().snapshot();
  const auto stats = bed.system().mee().stats();
  EXPECT_EQ(stats.reads, value(counters, "mee.read_walks"));
  EXPECT_EQ(stats.writes, value(counters, "mee.write_walks"));
  EXPECT_EQ(stats.tag_hits, value(counters, "mee.cache.tag_class.hits"));
  EXPECT_EQ(stats.tag_misses, value(counters, "mee.cache.tag_class.misses"));
  EXPECT_EQ(stats.tampers_detected, value(counters, "mee.tampers_detected"));
  std::uint64_t stop_sum = 0;
  for (const auto stops : stats.stops) stop_sum += stops;
  EXPECT_EQ(stop_sum, obs::snapshot_total(counters, "mee.stop."));
  EXPECT_GT(stats.reads, 0u);
}

// The hierarchy's per-cache CacheStats and its cache.* hub counters are
// maintained on the same events; any workload must leave them equal.
TEST(CounterInvariants, HierarchyCacheStatsMatchTheCounters) {
  channel::TestBed bed(channel::default_testbed_config(23));
  channel::LatencySurveyConfig config;
  config.samples_per_stride = 60;
  channel::run_latency_survey(bed, config);

  const auto counters = bed.system().hub().registry().snapshot();
  auto& hierarchy = bed.system().hierarchy();
  std::uint64_t l1_hits = 0, l1_misses = 0, l2_hits = 0, l2_misses = 0;
  for (unsigned c = 0; c < hierarchy.core_count(); ++c) {
    const auto& l1 = hierarchy.l1(CoreId{c}).stats();
    const auto& l2 = hierarchy.l2(CoreId{c}).stats();
    l1_hits += l1.hits;
    l1_misses += l1.misses;
    l2_hits += l2.hits;
    l2_misses += l2.misses;
  }
  EXPECT_EQ(l1_hits, value(counters, "cache.l1.hits"));
  EXPECT_EQ(l1_misses, value(counters, "cache.l1.misses"));
  EXPECT_EQ(l2_hits, value(counters, "cache.l2.hits"));
  EXPECT_EQ(l2_misses, value(counters, "cache.l2.misses"));

  const auto& llc = hierarchy.llc().stats();
  EXPECT_EQ(llc.hits, value(counters, "cache.llc.hits"));
  EXPECT_EQ(llc.misses, value(counters, "cache.llc.misses"));
  EXPECT_EQ(llc.evictions, value(counters, "cache.llc.evictions"));
}

// Counters ride in the TrialRecord, so the runner's determinism contract
// extends to them: bit-identical at --jobs 1 and --jobs 4.
TEST(CounterInvariants, IdenticalAcrossJobCounts) {
  runtime::register_builtin_experiments();
  const runtime::Experiment& experiment =
      runtime::get_experiment("fig5_latency_histogram");
  runtime::SweepSpec sweep;
  sweep.sets = {{"samples_per_stride", "40"}};
  sweep.seeds = 4;
  const auto trials = runtime::expand_sweep(experiment, sweep);

  runtime::RunnerConfig serial;
  serial.jobs = 1;
  runtime::RunnerConfig parallel;
  parallel.jobs = 4;
  const auto a = runtime::run_trials(experiment, trials, serial);
  const auto b = runtime::run_trials(experiment, trials, parallel);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    EXPECT_FALSE(a[i].counters.empty());
    EXPECT_EQ(a[i].counters, b[i].counters) << "trial " << i;
  }
}

}  // namespace
}  // namespace meecc
