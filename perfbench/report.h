// Shared measurement vocabulary of meecc_perfbench: clocks, the
// statistics every workload reports, the in-memory span log of a traced
// run, the digest of simulated statistics, and the output record.
//
// Every workload runs rounds of fixed work until the --seconds window is
// spent, then reports medians over rounds (throughput, CPU time) and
// percentiles over items (latency). Spans are recorded by the benchmark
// around its calls into the layers, never inside the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace meecc::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What meecc_perfbench was asked to run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: every round shrinks to a few items so the whole
  /// benchmark runs in seconds (perfbench/test_smoke.py).
  bool tiny = false;
  /// Seconds main() spent in runtime::register_builtin_experiments(): the
  /// registry part of every workload's set-up, which runs once a process.
  double register_s = 0.0;
};

/// FNV-1a 64 over everything fed to it: the digest of simulated
/// statistics. Identical inputs and identical simulator behaviour give an
/// identical digest; a pure-speed change must keep it.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add_u64(std::uint64_t value) { add(std::to_string(value)); }
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// The p-th percentile (0..100) by linear interpolation between closest
/// ranks (0 when empty).
double percentile(std::vector<double> values, double p);

/// A latency tail: a percentile with the number of samples it rests on.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest percentile of {50, 90, 99, 99.9} with at least ten samples
/// beyond it. Reported per layer, where a stall tail is what is wanted.
Tail latency_tail(const std::vector<double>& values);

/// The gated latency tail, latency_tail_ms: the 90th percentile. Above it,
/// item latency on a shared 4-vCPU host is set by preemption rather than
/// by the program (NOTES.md).
inline constexpr double kGatedTailPercentile = 90.0;

/// Item latency of a phase, summarized round by round: each round's median
/// and gated tail, and the phase reports the median of each over rounds,
/// so neither a disturbed round nor a round of unusually costly inputs can
/// set them. For fig7_figure a round is one sweep of the seven windows.
class LatencyLog {
 public:
  /// Adds one round's item latencies (ms).
  void add_round(const std::vector<double>& ms);
  struct Summary {
    double p50 = 0.0;
    Tail tail;  ///< samples = every item of the phase
  };
  Summary summary() const;

 private:
  std::vector<double> p50_, tail_;
  std::size_t samples_ = 0;
};

/// Process CPU time (user and system, seconds) from getrusage.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTimes process_cpu();

/// Logical CPUs this process may run on (what `nproc` prints).
unsigned available_cpus();

/// Heap allocations made by this process so far (alloc_count.cc).
std::uint64_t allocation_count();

/// In-memory span log of a traced run: name, start, end, parent span and
/// item id. Spans are appended by one thread at a time and written out by
/// write_csv() when the benchmark ends.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  struct Span {
    const char* name;  ///< static string: one of the layer span names
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t parent;
    std::uint64_t item;
  };
  std::uint32_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint32_t parent,
                    std::uint64_t item) {
    spans_.push_back({name, start, end, parent, item});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Durations in milliseconds of every span called `name`; with `self`,
  /// minus the time its direct children cover.
  std::vector<double> durations_ms(std::string_view name,
                                   bool self = false) const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one CSV row per span (times in ns from the first span).
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Per-layer values of a traced run, by name (see per_layer_metrics()).
  std::map<std::string, double> layers;
  /// Context printed on the line before the result: digest, tail
  /// percentile and sample count, thread budget, trace overhead inputs.
  std::vector<std::pair<std::string, std::string>> context;
  /// Human-readable reasons behind correct=false.
  std::vector<std::string> problems;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(const std::string& name, double value) { layers[name] = value; }
  void note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// `num / den`, or 0 when `den` is not positive.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Host costs of a phase's rounds, one entry per round: wall seconds,
/// items per second, process CPU seconds (user+sys), system CPU seconds
/// and heap allocations per item.
struct RoundCosts {
  std::vector<double> wall_s, rates, cpu_s, sys_s, allocs_per_item;

  /// Runs `body`, one round of `items` items, records its costs and
  /// returns its wall seconds.
  template <typename Body>
  double measure(std::size_t items, Body&& body) {
    const CpuTimes cpu0 = process_cpu();
    const std::uint64_t allocs0 = allocation_count();
    const auto t0 = Clock::now();
    body();
    const double wall = seconds_between(t0, Clock::now());
    const std::uint64_t allocs = allocation_count() - allocs0;
    const CpuTimes cpu1 = process_cpu();
    const double n = static_cast<double>(items);
    wall_s.push_back(wall);
    rates.push_back(n / wall);
    cpu_s.push_back(cpu1.total() - cpu0.total());
    sys_s.push_back(cpu1.sys - cpu0.sys);
    allocs_per_item.push_back(static_cast<double>(allocs) / n);
    return wall;
  }
};

/// The seven end-to-end metrics, shared by every workload. `setup_reps_s`
/// are the workload's repeated set-ups (setup_s adds their median to
/// Options::register_s); items_per_s and cpu_s are medians over `rounds`.
void add_end_to_end(Outcome& out, const Options& options,
                    const std::vector<double>& setup_reps_s,
                    const RoundCosts& rounds, const LatencyLog& latency,
                    std::uint64_t items_ok, std::uint64_t items_attempted);

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// traced run reports all of them; a layer a workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Rounds whose simulated statistics form a run's digest; every phase runs
/// at least this many.
inline constexpr int kDigestRounds = 3;

/// Input seed of round `round` of a run with workload seed `seed`. Each
/// round draws fresh inputs, so a run's medians rest on many inputs rather
/// than on the cost of one draw.
inline std::uint64_t round_seed(std::uint64_t seed, int round) {
  return seed * 1000 + static_cast<std::uint64_t>(round) + 1;
}

/// Runs rounds until `seconds` of round time are spent and at least
/// `min_rounds` ran. `round(r)` runs round r and returns its wall seconds.
template <typename Round>
void run_rounds(double seconds, int min_rounds, Round&& round) {
  double spent = 0.0;
  int rounds = 0;
  while (rounds < min_rounds || spent < seconds) spent += round(rounds++);
}

/// Fixed-precision rendering for context values.
std::string fmt(double value);

/// Directory for run outputs (.bench_work), inside the working directory.
std::string work_dir();

}  // namespace meecc::perfbench
