#include "channel/mitigation.h"

#include "common/check.h"

namespace meecc::channel {

namespace {

sim::Process legit_workload_process(sim::Actor& actor,
                                    const sgx::Enclave& enclave,
                                    std::uint64_t reuse_bytes, int samples,
                                    LegitWorkloadStats* stats, bool* done) {
  MEECC_CHECK(reuse_bytes >= kLineSize && reuse_bytes <= enclave.size());
  const std::uint64_t lines = reuse_bytes / kLineSize;
  double total_latency = 0.0;
  for (int i = 0; i < samples; ++i) {
    const VirtAddr addr =
        enclave.address(actor.rng().next_below(lines) * kLineSize);
    const auto r = co_await actor.read(addr);
    co_await actor.clflush(addr);
    MEECC_CHECK(r.mee_level.has_value());
    ++stats->stops[static_cast<std::size_t>(*r.mee_level)];
    total_latency += static_cast<double>(r.latency);
    co_await actor.sleep_for(120);
  }
  stats->mean_protected_latency = total_latency / samples;
  stats->versions_hit_rate =
      static_cast<double>(
          stats->stops[static_cast<std::size_t>(mee::Level::kVersions)]) /
      static_cast<double>(samples);
  *done = true;
}

}  // namespace

LegitWorkloadStats measure_legit_workload(TestBed& bed,
                                          std::uint64_t reuse_bytes,
                                          int samples) {
  LegitWorkloadStats stats;
  bool done = false;
  bed.scheduler().spawn(legit_workload_process(
      bed.spy(), bed.spy_enclave(), reuse_bytes, samples, &stats, &done));
  bed.scheduler().run_until_flag(done);
  return stats;
}

}  // namespace meecc::channel
