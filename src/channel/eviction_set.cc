#include "channel/eviction_set.h"

#include <algorithm>

#include "channel/classify.h"
#include "channel/primitives.h"
#include "common/check.h"
#include "common/stats.h"

namespace meecc::channel {
namespace {

/// Median-of-`repeats` eviction test: did `set` evict `victim`?
/// The smallest detectable miss is an L0 hit only ~65 cycles above the
/// versions-hit baseline, so single measurements (σ ≈ 15 cycles of DRAM
/// jitter + timer quantization) are too noisy — the median tightens the
/// statistic by √repeats.
sim::Task<bool> voted_eviction(sim::Actor& actor,
                               const std::vector<VirtAddr>& set,
                               VirtAddr victim, AdaptiveClassifier& classifier,
                               int repeats) {
  std::vector<double> measured;
  measured.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    measured.push_back(
        static_cast<double>(co_await eviction_test(actor, set, victim)));
  }
  // classify() (no EWMA update): the baseline comes solely from the
  // explicit recalibrations, so borderline misses cannot creep it upward.
  co_return classifier.classify(median(std::move(measured)));
}

}  // namespace

sim::Process find_eviction_set_process(sim::Actor& actor,
                                       const sgx::Enclave& enclave,
                                       EvictionSetConfig config,
                                       EvictionSetResult* result) {
  MEECC_CHECK(result != nullptr);
  const std::vector<VirtAddr> candidates = make_candidate_set(
      enclave, config.first_page, config.candidate_pages, config.offset_unit);

  // Scratch address for baseline calibration: same enclave, different
  // 512 B offset unit, so it shares no versions line with any candidate.
  const VirtAddr scratch =
      enclave.address(config.first_page * kPageSize +
                      ((config.offset_unit + 1) % kOffsetUnits) * kChunkSize);

  AdaptiveClassifier classifier(config.classifier_margin);
  co_await calibrate_on_hits(actor, scratch, classifier);

  // DRAM latency drifts on millisecond scales; recalibrate the hit baseline
  // every few decisions so the margin stays centred in the hit↔L0 gap.
  int decisions_since_calibration = 0;
  auto maybe_recalibrate = [&]() -> sim::Task<> {
    if (++decisions_since_calibration >= 4) {
      decisions_since_calibration = 0;
      co_await calibrate_on_hits(actor, scratch, classifier);
    }
  };

  // Phase 1: greedily grow the index address set (paper lines 13-17).
  auto& index_set = result->index_set;
  for (const VirtAddr candidate : candidates) {
    const bool evicted = co_await voted_eviction(actor, index_set, candidate,
                                                 classifier, config.repeats);
    if (!evicted) index_set.push_back(candidate);
    co_await maybe_recalibrate();
  }

  // Phases 2+3 with self-validation: pick a test address the index set
  // evicts, peel the index set down to the eviction set, then check that
  // the recovered set is itself sufficient to evict the test address. A
  // transient co-resident line (background enclave traffic parked in the
  // contested set) can cost phase 3 a member; validation catches that and
  // the attacker simply retries with the next test address.
  for (const VirtAddr test : candidates) {
    if (std::find(index_set.begin(), index_set.end(), test) != index_set.end())
      continue;

    // Phase 2 (lines 18-23): does the index set evict this candidate?
    co_await prime_pass(actor, index_set);
    actor.mfence();
    const bool usable = co_await voted_eviction(actor, index_set, test,
                                                classifier, config.repeats);
    co_await maybe_recalibrate();
    if (!usable) continue;
    result->test_address = test;
    result->found_test_address = true;

    // Phase 3 (lines 24-32): peel index-set members; the ones whose removal
    // lets the test address survive form the eviction set.
    result->eviction_set.clear();
    for (const VirtAddr target : index_set) {
      std::vector<VirtAddr> reduced;
      reduced.reserve(index_set.size() - 1);
      for (const VirtAddr addr : index_set)
        if (addr != target) reduced.push_back(addr);

      co_await prime_pass(actor, index_set);
      actor.mfence();
      const bool evicted = co_await voted_eviction(
          actor, reduced, result->test_address, classifier, config.repeats);
      if (!evicted) result->eviction_set.push_back(target);
      co_await maybe_recalibrate();
    }

    // Refinement sweep: a falsely-included member is redundant — the set
    // minus that member still evicts the test address. Repeat until stable
    // (each removal shrinks the set, so this terminates).
    bool pruned = true;
    while (pruned && result->eviction_set.size() > 1) {
      pruned = false;
      for (std::size_t i = 0; i < result->eviction_set.size(); ++i) {
        std::vector<VirtAddr> reduced;
        reduced.reserve(result->eviction_set.size() - 1);
        for (std::size_t j = 0; j < result->eviction_set.size(); ++j)
          if (j != i) reduced.push_back(result->eviction_set[j]);

        const bool evicted = co_await voted_eviction(
            actor, reduced, result->test_address, classifier, config.repeats);
        co_await maybe_recalibrate();
        if (evicted) {
          result->eviction_set.erase(result->eviction_set.begin() +
                                     static_cast<std::ptrdiff_t>(i));
          pruned = true;
          break;
        }
      }
    }

    // Validation: the recovered set alone must evict the test address.
    const bool sufficient = co_await voted_eviction(
        actor, result->eviction_set, result->test_address, classifier,
        config.repeats);
    if (sufficient) break;
    result->eviction_set.clear();  // incomplete recovery — retry
    result->found_test_address = false;
  }

  result->done = true;
}

EvictionSetResult find_eviction_set(TestBed& bed,
                                    const EvictionSetConfig& config) {
  EvictionSetResult result;
  bed.scheduler().spawn(find_eviction_set_process(
      bed.trojan(), bed.trojan_enclave(), config, &result));
  bed.scheduler().run_until_flag(result.done);
  return result;
}

}  // namespace meecc::channel
