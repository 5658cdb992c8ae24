#include "channel/detector.h"

#include "common/check.h"
#include <algorithm>
#include <functional>
#include <vector>

#include "mee/engine.h"

namespace meecc::channel {
namespace {

std::uint64_t non_versions_stops(const mee::MeeStats& stats) {
  std::uint64_t misses = 0;
  for (std::size_t level = 1; level < stats.stops.size(); ++level)
    misses += stats.stops[level];
  return misses;
}

sim::Process sampler(sim::Scheduler& scheduler, mee::MeeEngine& mee,
                     DetectorConfig config, DetectorReport* report,
                     const bool* stop_requested, bool* stopped) {
  std::uint64_t prev_reads = mee.stats().reads;
  std::uint64_t prev_misses = non_versions_stops(mee.stats());
  std::vector<std::uint64_t> prev_set_evictions =
      mee.cache().evictions_per_set();
  int ratio_streak = 0;
  int concentration_streak = 0;

  while (!*stop_requested) {
    co_await sim::WakeAt{scheduler, scheduler.now() + config.epoch};
    ++report->epochs;

    const std::uint64_t reads = mee.stats().reads;
    const std::uint64_t misses = non_versions_stops(mee.stats());
    const std::uint64_t epoch_reads = reads - prev_reads;
    const std::uint64_t epoch_misses = misses - prev_misses;
    prev_reads = reads;
    prev_misses = misses;

    // Rule 2 inputs: eviction deltas per set; concentration = top-K share.
    const auto& set_evictions = mee.cache().evictions_per_set();
    std::vector<std::uint64_t> deltas(set_evictions.size());
    std::uint64_t epoch_evictions = 0;
    for (std::size_t s = 0; s < set_evictions.size(); ++s) {
      deltas[s] = set_evictions[s] - prev_set_evictions[s];
      epoch_evictions += deltas[s];
    }
    prev_set_evictions = set_evictions;
    const std::size_t top_k =
        std::min(config.concentration_top_sets, deltas.size());
    std::partial_sort(deltas.begin(),
                      deltas.begin() + static_cast<std::ptrdiff_t>(top_k),
                      deltas.end(), std::greater<>());
    std::uint64_t hottest = 0;
    for (std::size_t k = 0; k < top_k; ++k) hottest += deltas[k];

    bool suspicious = false;

    // Rule 1: sustained active, miss-heavy phases (CacheShield-style).
    if (epoch_reads >= config.min_reads_per_epoch) {
      const double ratio =
          static_cast<double>(epoch_misses) / static_cast<double>(epoch_reads);
      report->miss_ratio_series.push_back(ratio);
      if (ratio >= config.miss_ratio_threshold) {
        suspicious = true;
        if (++ratio_streak >= config.consecutive_epochs) {
          if (!report->flagged) report->first_flag_time = scheduler.now();
          report->flagged = true;
          report->flagged_by_miss_ratio = true;
        }
      } else {
        ratio_streak = 0;
      }
    } else {
      ratio_streak = 0;
    }

    // Rule 2: conflict evictions concentrated in one set — the footprint of
    // an eviction-set channel, which a legit streaming workload spreads.
    if (epoch_evictions >= config.min_evictions_per_epoch) {
      const double share = static_cast<double>(hottest) /
                           static_cast<double>(epoch_evictions);
      if (share >= config.eviction_concentration_threshold) {
        suspicious = true;
        if (++concentration_streak >= config.consecutive_epochs) {
          if (!report->flagged) report->first_flag_time = scheduler.now();
          report->flagged = true;
          report->flagged_by_concentration = true;
        }
      } else {
        concentration_streak = 0;
      }
    } else {
      concentration_streak = 0;
    }

    if (suspicious) ++report->suspicious_epochs;
  }
  *stopped = true;
}

}  // namespace

Detector::Detector(TestBed& bed, const DetectorConfig& config)
    : bed_(bed), config_(config) {
  MEECC_CHECK(config.epoch > 0);
  MEECC_CHECK(config.consecutive_epochs > 0);
}

void Detector::start() {
  MEECC_CHECK_MSG(!started_, "detector already started");
  started_ = true;
  bed_.scheduler().spawn(sampler(bed_.scheduler(), bed_.system().mee(),
                                 config_, &report_, &stop_requested_,
                                 &stopped_));
}

DetectorReport Detector::stop() {
  MEECC_CHECK_MSG(started_, "detector was never started");
  if (!stopped_) {
    stop_requested_ = true;
    bed_.scheduler().run_until_flag(stopped_);
  }
  return report_;
}

}  // namespace meecc::channel
