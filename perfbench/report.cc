#include "report.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/proc_rss.h"

namespace meecc::perfbench {

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Tail latency_tail(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (static_cast<double>(values.size()) * (1.0 - p / 100.0) < 10.0) break;
    tail.percentile = p;
  }
  if (tail.percentile > 0.0) tail.value = percentile(values, tail.percentile);
  return tail;
}

void LatencyLog::add_round(const std::vector<double>& ms) {
  samples_ += ms.size();
  p50_.push_back(percentile(ms, 50.0));
  tail_.push_back(percentile(ms, kGatedTailPercentile));
}

LatencyLog::Summary LatencyLog::summary() const {
  Summary out;
  out.p50 = median(p50_);
  out.tail = {kGatedTailPercentile, median(tail_), samples_};
  return out;
}

CpuTimes process_cpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<double> SpanLog::durations_ms(std::string_view name,
                                          bool self) const {
  std::vector<double> ms(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    ms[i] = 1e3 * seconds_between(spans_[i].start, spans_[i].end);
  if (self) {
    std::vector<double> covered(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent != kNoParent) covered[spans_[i].parent] += ms[i];
    for (std::size_t i = 0; i < spans_.size(); ++i) ms[i] -= covered[i];
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) out.push_back(ms[i]);
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,name,parent,item,start_ns,end_ns\n";
  if (spans_.empty()) return;
  const auto origin = spans_.front().start;
  const auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ','
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ',' << s.item << ',' << ns(s.start) << ',' << ns(s.end) << '\n';
  }
}

void add_end_to_end(Outcome& out, const Options& options,
                    const std::vector<double>& setup_reps_s,
                    const RoundCosts& rounds, const LatencyLog& latency_log,
                    std::uint64_t items_ok, std::uint64_t items_attempted) {
  const LatencyLog::Summary latency = latency_log.summary();
  out.metric("setup_s", options.register_s + median(setup_reps_s), "s");
  out.metric("items_per_s", median(rounds.rates), "1/s");
  out.metric("latency_p50_ms", latency.p50, "ms");
  out.metric("latency_tail_ms", latency.tail.value, "ms");
  out.metric("cpu_s", median(rounds.cpu_s), "s");
  out.metric("peak_rss_mb", meecc::peak_rss_mb(), "MB");
  out.metric("ok_frac",
             ratio(static_cast<double>(items_ok),
                   static_cast<double>(items_attempted)),
             "frac");
  out.note("latency_tail_percentile", fmt(latency.tail.percentile));
  out.note("latency_samples", std::to_string(latency.tail.samples));
  out.note("rounds", std::to_string(rounds.rates.size()));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"runtime.trial_body_ms_p50", "ms"},
      {"runtime.handoff_ms_p50", "ms"},
      {"runtime.handoff_ms_tail", "ms"},
      {"runtime.setup_builds", "count"},
      {"runtime.setup_hit_ratio", "frac"},
      {"runtime.bed_recycle_ratio", "1/trial"},
      {"runtime.bed_discards", "count"},
      {"runtime.allocs_per_trial", "count"},
      {"runtime.sys_s", "s"},
      {"sim.build_ms_p50", "ms"},
      {"sim.des_dispatched", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"channel.setup_ms_p50", "ms"},
      {"channel.transfer_ms_p50", "ms"},
      {"channel.kbps_w15000", "KB/s"},
      {"channel.error_rate_w15000", "frac"},
      {"cache.llc_miss_ratio", "frac"},
      {"cache.clflushes", "count"},
      {"mee.read_walks", "count"},
      {"mee.write_walks", "count"},
      {"mee.versions_stop_ratio", "frac"},
      {"mee.nodes_fetched_per_walk", "count"},
      {"mee.host_ns_per_walk", "ns"},
      {"mee.read_us_p50", "us"},
      {"mee.write_us_p50", "us"},
      {"crypto.self_s", "s"},
      {"crypto.pad_hit_ratio", "frac"},
      {"crypto.mac_verifies", "count"},
      {"mem.dram_reads", "count"},
      {"mem.dram_protected_reads", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

std::string fmt(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.6g", value);
  return text;
}

std::string work_dir() {
  const std::string dir = ".bench_work";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace meecc::perfbench
