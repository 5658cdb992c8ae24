#include "channel/capacity_probe.h"

#include <algorithm>

#include "channel/candidates.h"
#include "channel/classify.h"
#include "channel/primitives.h"
#include "common/check.h"

namespace meecc::channel {
namespace {

sim::Process capacity_probe_process(sim::Actor& actor,
                                    const sgx::Enclave& enclave,
                                    CapacityProbeConfig config,
                                    CapacityProbeResult* result) {
  const std::uint64_t max_n =
      *std::max_element(config.set_sizes.begin(), config.set_sizes.end());
  MEECC_CHECK_MSG(enclave.page_count() >= max_n,
                  "enclave too small for the largest candidate set");

  AdaptiveClassifier classifier(config.classifier_margin);
  // Calibrate on a versions hit using a scratch address at a different
  // offset unit (so it shares no versions line with any candidate).
  const VirtAddr scratch = enclave.address(
      ((config.offset_unit + 1) % kOffsetUnits) * kChunkSize);
  co_await calibrate_on_hits(actor, scratch, classifier);

  int trials_done = 0;
  for (const std::uint64_t n : config.set_sizes) {
    CapacityProbePoint point;
    point.candidates = n;
    for (int trial = 0; trial < config.trials; ++trial) {
      // The victims are the (N+1)-th and (N+9)-th candidates: one and two
      // more 4 KB strides-of-8 past the window, so at N = 64 their alias
      // group contributes exactly 8 fresh versions lines — more than the
      // set can hold alongside them. Load the victims, stream the candidate
      // set, re-measure: a versions miss on either means the candidate set
      // overflowed the cache. (Two victims de-noise the single-shot
      // measurement; each probe can only be taken once, as probing reloads
      // the line.)
      const std::uint64_t first_page =
          actor.rng().next_below(enclave.page_count() - n - 8);
      const auto candidates =
          make_candidate_set(enclave, first_page, n, config.offset_unit);
      const VirtAddr victim_a =
          enclave.address((first_page + n) * kPageSize +
                          config.offset_unit * kChunkSize);
      const VirtAddr victim_b =
          enclave.address((first_page + n + 8) * kPageSize +
                          config.offset_unit * kChunkSize);

      co_await touch_and_flush(actor, victim_a);
      co_await touch_and_flush(actor, victim_b);
      actor.mfence();
      co_await prime_pass(actor, candidates);
      actor.mfence();
      const auto measured_a =
          static_cast<double>(co_await timed_probe(actor, victim_a));
      const auto measured_b =
          static_cast<double>(co_await timed_probe(actor, victim_b));
      if (classifier.classify(measured_a) || classifier.classify(measured_b))
        ++point.evictions;
      co_await actor.sleep_for(2000);
      if (++trials_done % 8 == 0)
        co_await calibrate_on_hits(actor, scratch, classifier);
    }
    point.probability =
        static_cast<double>(point.evictions) / config.trials;
    result->points.push_back(point);
  }

  for (const auto& point : result->points) {
    if (point.probability >= 0.95) {
      result->knee = point.candidates;
      break;
    }
  }
  if (result->knee != 0)
    result->estimated_capacity_bytes = result->knee * 16 * kLineSize;
  result->done = true;
}

}  // namespace

CapacityProbeResult run_capacity_probe(TestBed& bed,
                                       const CapacityProbeConfig& config) {
  CapacityProbeResult result;
  bed.scheduler().spawn(capacity_probe_process(
      bed.trojan(), bed.trojan_enclave(), config, &result));
  bed.scheduler().run_until_flag(result.done);
  return result;
}

}  // namespace meecc::channel
