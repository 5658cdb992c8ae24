#include "channel/timing_study.h"

#include "common/check.h"
#include "sim/noise.h"
#include "sim/timer.h"

namespace meecc::channel {
namespace {

/// Measures enclave accesses with `timer`, recording measured vs truth.
sim::Process enclave_timer_study(sim::Actor& actor,
                                 const sgx::Enclave& enclave,
                                 sim::TimerModel timer,
                                 TimingStudyConfig config, TimerSeries* series,
                                 bool* done) {
  std::uint64_t offset = 0;
  for (int i = 0; i < config.samples; ++i) {
    const VirtAddr addr = enclave.address(offset);
    const Cycles before = actor.read_timer(timer);
    const auto r = co_await actor.read(addr);
    const Cycles after = actor.read_timer(timer);
    co_await actor.clflush(addr);

    series->measured.add(static_cast<double>(after - before));
    series->truth.add(static_cast<double>(r.latency));
    series->overhead.add(static_cast<double>(after - before) -
                         static_cast<double>(r.latency));
    offset = (offset + kPageSize) % enclave.size();
    co_await actor.sleep_for(config.gap);
  }
  *done = true;
}

/// Non-enclave rdtsc baseline over general-region memory.
sim::Process native_timer_study(sim::Actor& actor, VirtAddr buffer,
                                std::uint64_t bytes, TimingStudyConfig config,
                                TimerSeries* series, bool* done) {
  const sim::TimerModel timer = sim::native_rdtsc_timer();
  std::uint64_t offset = 0;
  for (int i = 0; i < config.samples; ++i) {
    const VirtAddr addr = buffer + offset;
    const Cycles before = actor.read_timer(timer);
    const auto r = co_await actor.read(addr);
    const Cycles after = actor.read_timer(timer);
    co_await actor.clflush(addr);

    series->measured.add(static_cast<double>(after - before));
    series->truth.add(static_cast<double>(r.latency));
    series->overhead.add(static_cast<double>(after - before) -
                         static_cast<double>(r.latency));
    offset = (offset + kLineSize) % bytes;
    co_await actor.sleep_for(config.gap);
  }
  *done = true;
}

}  // namespace

TimingStudyResult run_timing_study(TestBed& bed,
                                   const TimingStudyConfig& config) {
  TimingStudyResult result;

  // SGX v1 rule: rdtsc faults in enclave mode.
  try {
    (void)bed.spy().read_timer(sim::native_rdtsc_timer());
  } catch (const sim::ModeViolation&) {
    result.rdtsc_faults_in_enclave = true;
  }

  bool done = false;
  bed.scheduler().spawn(enclave_timer_study(bed.spy(), bed.spy_enclave(),
                                            sim::ocall_timer(), config,
                                            &result.ocall, &done));
  bed.scheduler().run_until_flag(done);

  done = false;
  bed.scheduler().spawn(enclave_timer_study(bed.spy(), bed.spy_enclave(),
                                            sim::shared_clock_timer(), config,
                                            &result.shared_clock, &done));
  bed.scheduler().run_until_flag(done);

  done = false;
  sim::Actor native_actor(bed.system(), CoreId{2}, CpuMode::kNonEnclave);
  const VirtAddr buffer = sim::map_general_buffer(
      native_actor, VirtAddr{0x5000'0000'0000ULL}, 1 << 20);
  bed.scheduler().spawn(native_timer_study(native_actor, buffer, 1 << 20,
                                           config, &result.native, &done));
  bed.scheduler().run_until_flag(done);

  result.done = true;
  return result;
}

}  // namespace meecc::channel
