#include "channel/latency_survey.h"

#include "common/check.h"

namespace meecc::channel {
namespace {

sim::Process latency_survey_process(sim::Actor& actor,
                                    const sgx::Enclave& enclave,
                                    LatencySurveyConfig config,
                                    LatencySurveyResult* result) {
  for (const std::uint64_t stride : config.strides) {
    MEECC_CHECK(stride >= kLineSize && stride % kLineSize == 0);
    MEECC_CHECK(enclave.size() >= stride);
    StrideSeries series;
    series.stride = stride;
    series.histogram = Histogram(config.hist_lo, config.hist_hi,
                                 config.hist_bins);

    std::uint64_t offset = 0;
    for (int i = 0; i < config.samples_per_stride; ++i) {
      const VirtAddr addr = enclave.address(offset);
      const auto r = co_await actor.read(addr);
      co_await actor.clflush(addr);

      MEECC_CHECK_MSG(r.mee_level.has_value(),
                      "survey access did not reach the MEE");
      const auto latency = static_cast<double>(r.latency);
      series.histogram.add(latency);
      series.latency.add(latency);
      const auto level = static_cast<std::size_t>(*r.mee_level);
      ++series.stop_counts[level];
      result->per_level[level].add(latency);

      offset += stride;
      if (offset + kLineSize > enclave.size()) offset = 0;
      co_await actor.sleep_for(config.gap);
    }
    result->series.push_back(std::move(series));
  }
  result->done = true;
}

}  // namespace

LatencySurveyResult run_latency_survey(TestBed& bed,
                                       const LatencySurveyConfig& config) {
  LatencySurveyResult result;
  bed.scheduler().spawn(latency_survey_process(
      bed.trojan(), bed.trojan_enclave(), config, &result));
  bed.scheduler().run_until_flag(result.done);
  return result;
}

}  // namespace meecc::channel
