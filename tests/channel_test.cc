#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "channel/candidates.h"
#include "channel/capacity_probe.h"
#include "channel/classify.h"
#include "channel/eviction_set.h"
#include "channel/latency_survey.h"
#include "channel/mitigation.h"
#include "channel/testbed.h"
#include "channel/timing_study.h"
#include "common/check.h"

namespace meecc::channel {
namespace {

// Smaller, faster machine for unit-level channel tests. Crypto is disabled:
// these tests exercise timing/caching behaviour, which is unchanged.
TestBedConfig fast_config(std::uint64_t seed = 42) {
  TestBedConfig config = default_testbed_config(seed);
  config.system.address_map.general_size = 16ull << 20;
  config.system.address_map.epc_size = 16ull << 20;
  config.system.mee.functional_crypto = false;
  config.noise_enclave_bytes = 1ull << 20;
  config.background_enclave_bytes = 1ull << 20;
  return config;
}

TEST(AdaptiveClassifier, TracksBaselineAndFlagsMisses) {
  AdaptiveClassifier c(40.0);
  c.calibrate(500.0);
  EXPECT_FALSE(c.is_miss(510.0));
  EXPECT_TRUE(c.is_miss(560.0));
  // Miss measurements must NOT drag the baseline up.
  EXPECT_NEAR(c.baseline(), 502.0, 1.0);
}

TEST(AdaptiveClassifier, FollowsSlowDrift) {
  AdaptiveClassifier c(40.0);
  c.calibrate(500.0);
  // Baseline drifts up 0.5 cycles per probe — classifier must follow.
  double level = 500.0;
  for (int i = 0; i < 200; ++i) {
    level += 0.5;
    EXPECT_FALSE(c.is_miss(level)) << "probe " << i;
  }
  EXPECT_TRUE(c.is_miss(level + 65.0));  // signal still detected after drift
}

TEST(AdaptiveClassifier, FirstSampleCalibratesWhenUnseeded) {
  AdaptiveClassifier c(40.0);
  EXPECT_FALSE(c.is_miss(480.0));
  EXPECT_TRUE(c.calibrated());
  EXPECT_TRUE(c.is_miss(540.0));
}

TEST(AdaptiveClassifier, RejectsBadParameters) {
  EXPECT_THROW(AdaptiveClassifier(0.0), CheckFailure);
  EXPECT_THROW(AdaptiveClassifier(40.0, 0.0), CheckFailure);
}

TEST(Candidates, FourKStrideSameOffset) {
  TestBed bed(fast_config());
  const auto set = make_candidate_set(bed.trojan_enclave(), 2, 10, 3);
  ASSERT_EQ(set.size(), 10u);
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set[i].page_offset(), 3u * kChunkSize);
    if (i > 0) {
      EXPECT_EQ(set[i] - set[i - 1], kPageSize);
    }
  }
}

TEST(Candidates, BoundsChecked) {
  TestBed bed(fast_config());
  const auto pages = bed.trojan_enclave().page_count();
  EXPECT_THROW(make_candidate_set(bed.trojan_enclave(), 0, pages + 1, 0),
               CheckFailure);
  EXPECT_THROW(make_candidate_set(bed.trojan_enclave(), 0, 1, 8),
               CheckFailure);
}

TEST(Candidates, VersionsLinesCycleThroughEightAliasGroups) {
  // With contiguous EPC frames, 4 KB-stride candidates' versions lines must
  // cycle deterministically over 8 MEE-cache sets (the alias groups): this
  // is the structural fact Fig. 4 and Algorithm 1 rely on.
  TestBed bed(fast_config());
  const auto set = make_candidate_set(bed.trojan_enclave(), 0, 64, 1);
  auto& system = bed.system();
  const auto& geometry = system.mee().geometry();
  const auto cache_geom = system.mee().cache().geometry();

  std::map<std::uint64_t, int> sets_seen;
  for (const VirtAddr va : set) {
    const PhysAddr pa = bed.trojan().vas().translate(va);
    const PhysAddr version_line =
        geometry.versions_line_addr(geometry.chunk_of(pa));
    const auto cache_set = cache_geom.set_index(version_line);
    EXPECT_EQ(cache_set % 2, 1u) << "versions lines live in odd sets";
    ++sets_seen[cache_set];
  }
  EXPECT_EQ(sets_seen.size(), 8u);
  for (const auto& [cache_set, count] : sets_seen) EXPECT_EQ(count, 8);
}

TEST(TestBed, ConstructsAndRunsBackground) {
  TestBed bed(fast_config());
  bed.scheduler().run_until(500'000);
  // Ambient background activity produced MEE traffic.
  EXPECT_GT(bed.system().mee().stats().reads, 0u);
}

TEST(TestBed, RunUntilFlagGuardsAgainstDrainedQueue) {
  TestBedConfig config = fast_config();
  config.background_mean_gap = 0;  // nothing scheduled at all
  TestBed bed(config);
  bool never = false;
  EXPECT_THROW(bed.scheduler().run_until_flag(never), CheckFailure);
}

TEST(NoiseEnv, ToStringCoversAll) {
  EXPECT_EQ(to_string(NoiseEnv::kNone), "no noise");
  EXPECT_EQ(to_string(NoiseEnv::kMeeStride4K), "MEE noise, 4KB stride");
}

// ------------------------------------------------------- reverse-engineering

TEST(LatencySurvey, SmallStrideHitsLowSmallRegionsHitHigh) {
  TestBed bed(fast_config());
  LatencySurveyConfig config;
  config.strides = {64, 4096};
  config.samples_per_stride = 600;
  const auto result = run_latency_survey(bed, config);
  ASSERT_EQ(result.series.size(), 2u);

  const auto& s64 = result.series[0];
  const auto versions_idx = static_cast<std::size_t>(mee::Level::kVersions);
  EXPECT_GT(s64.stop_counts[versions_idx], 400u);  // ~7/8 versions hits

  const auto& s4k = result.series[1];
  EXPECT_LT(s4k.stop_counts[versions_idx], 100u);
  EXPECT_GT(s4k.latency.mean(), s64.latency.mean() + 50.0);
}

TEST(LatencySurvey, PerLevelLatenciesAreOrderedAndSpaced) {
  TestBed bed(fast_config());
  LatencySurveyConfig config;
  config.strides = {64, 512, 4096, 32768};
  config.samples_per_stride = 800;
  const auto result = run_latency_survey(bed, config);

  const auto mean_of = [&](mee::Level level) {
    const auto& stats = result.per_level[static_cast<std::size_t>(level)];
    EXPECT_GT(stats.count(), 30u) << to_string(level);
    return stats.mean();
  };
  const double versions = mean_of(mee::Level::kVersions);
  const double l0 = mean_of(mee::Level::kL0);
  const double l1 = mean_of(mee::Level::kL1);
  const double l2 = mean_of(mee::Level::kL2);
  // Any versions miss pays the serialized counter fetch (~200 cycles, the
  // paper's hit-to-miss gap); further levels add the smaller pipelined step.
  EXPECT_GT(l0, versions + 150.0);
  EXPECT_GT(l1, l0 + 25.0);
  EXPECT_GT(l2, l1 + 25.0);
}

TEST(CapacityProbe, ProbabilityRisesToCertaintyAt64) {
  TestBed bed(fast_config());
  CapacityProbeConfig config;
  config.trials = 40;
  const auto result = run_capacity_probe(bed, config);
  ASSERT_EQ(result.points.size(), 6u);
  // Monotone-ish rise; saturation at 64 (paper Fig. 4).
  EXPECT_LT(result.points[0].probability, 0.5);   // N=2
  EXPECT_GE(result.points[5].probability, 0.95);  // N=64
  EXPECT_EQ(result.knee, 64u);
  EXPECT_EQ(result.estimated_capacity_bytes, 64u * 1024);
}

TEST(EvictionSet, RecoversAssociativityEight) {
  TestBed bed(fast_config());
  EvictionSetConfig config;
  config.candidate_pages = 96;
  const auto result = find_eviction_set(bed, config);
  EXPECT_TRUE(result.found_test_address);
  EXPECT_EQ(result.associativity(), 8u);

  // Ground truth: every recovered address' versions line maps to the same
  // MEE-cache set as the test address's versions line.
  auto& system = bed.system();
  const auto& geometry = system.mee().geometry();
  const auto cache_geom = system.mee().cache().geometry();
  const auto set_of = [&](VirtAddr va) {
    const PhysAddr pa = bed.trojan().vas().translate(va);
    return cache_geom.set_index(
        geometry.versions_line_addr(geometry.chunk_of(pa)));
  };
  const auto target_set = set_of(result.test_address);
  for (const VirtAddr addr : result.eviction_set)
    EXPECT_EQ(set_of(addr), target_set);
}

// ------------------------------------------------------------ timing study

TEST(TimingStudy, OverheadOrderingMatchesFig2) {
  TestBed bed(fast_config());
  TimingStudyConfig config;
  config.samples = 150;
  const auto result = run_timing_study(bed, config);
  EXPECT_TRUE(result.rdtsc_faults_in_enclave);
  // Native < shared clock << OCALL.
  EXPECT_LT(result.native.overhead.mean(), 80.0);
  EXPECT_LT(result.shared_clock.overhead.mean(), 120.0);
  EXPECT_GT(result.shared_clock.overhead.mean(), 20.0);
  EXPECT_GE(result.ocall.overhead.mean(), 8000.0);
  EXPECT_LE(result.ocall.overhead.mean(), 15000.0);
}

// -------------------------------------------------------------- mitigation

TEST(Mitigation, WayPartitionHalvesOccupancy) {
  EXPECT_EQ(cache::way_partition_mask(8, CoreId{0}), 0x0Fu);
  EXPECT_EQ(cache::way_partition_mask(8, CoreId{1}), 0xF0u);
  EXPECT_EQ(cache::way_partition_mask(8, CoreId{2}), 0x0Fu);
}

TEST(Mitigation, PartitioningCostsLegitPerformance) {
  // A 256 KB working set: 8 versions lines per cache set — exactly fits
  // the 8-way MEE cache, thrashes the 4-way partitioned half.
  TestBed baseline_bed(fast_config(7));
  const auto baseline = measure_legit_workload(baseline_bed, 256 * 1024, 2000);

  TestBedConfig partitioned_config = fast_config(7);
  partitioned_config.system.mee.cache_policy.fill = "partition";
  TestBed partitioned_bed(partitioned_config);
  const auto partitioned =
      measure_legit_workload(partitioned_bed, 256 * 1024, 2000);

  EXPECT_LT(partitioned.versions_hit_rate, baseline.versions_hit_rate - 0.15);
  EXPECT_GT(partitioned.mean_protected_latency,
            baseline.mean_protected_latency + 30.0);
}

}  // namespace
}  // namespace meecc::channel
