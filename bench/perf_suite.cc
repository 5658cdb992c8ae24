#include "perf_suite.h"

#include "alloc_count.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cache/geometry.h"
#include "cache/set_assoc_cache.h"
#include "cache/tag_probe.h"
#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "common/proc_rss.h"
#include "common/rng.h"
#include "crypto/aes_backend.h"
#include "crypto/line_cipher.h"
#include "crypto/multilinear_mac.h"
#include "mee/engine.h"
#include "mem/address_map.h"
#include "mem/page_table.h"
#include "mem/physical_memory.h"
#include "runtime/registry.h"
#include "runtime/runner.h"
#include "runtime/sink.h"
#include "runtime/sweep.h"
#include "sim/des.h"
#include "sim/system.h"

namespace meecc::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Compiler barrier so timed results are not dead-code-eliminated.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Times `run(iters)` (which must perform `iters` operations), growing
/// `iters` until the wall time passes `min_seconds`, then re-times that
/// final size several times and returns the best repetition's ns per
/// operation. Repetitions are timed with process CPU time, not wall time:
/// on a small shared host (single-vCPU CI runners especially) steal and
/// preemption inflate wall clocks by tens of percent in bursts longer
/// than any repetition, which trips the --compare gate on code that
/// didn't change; CPU time only counts cycles this process ran. The
/// minimum over repetitions then filters what CPU time cannot (migration
/// cost, cold caches, frequency dips — these only ever add time).
double ns_per_op(const std::function<void(std::uint64_t)>& run,
                 double min_seconds = 0.05, std::uint64_t start_iters = 64) {
  constexpr int kRepetitions = 7;
  const auto cpu_seconds = [](const std::function<void()>& f) {
    timespec c0{}, c1{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c0);
    f();
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c1);
    return static_cast<double>(c1.tv_sec - c0.tv_sec) +
           1e-9 * static_cast<double>(c1.tv_nsec - c0.tv_nsec);
  };
  std::uint64_t iters = start_iters;
  double sec = 0;
  for (;;) {
    sec = cpu_seconds([&] { run(iters); });
    if (sec >= min_seconds) break;
    iters = sec <= 1e-9
                ? iters * 32
                : static_cast<std::uint64_t>(static_cast<double>(iters) *
                                             min_seconds * 1.4 / sec) +
                      1;
  }
  double best = sec;
  for (int rep = 1; rep < kRepetitions; ++rep)
    best = std::min(best, cpu_seconds([&] { run(iters); }));
  return best * 1e9 / static_cast<double>(iters);
}

sim::Process ticker(sim::Scheduler& scheduler, std::uint64_t events) {
  for (std::uint64_t i = 0; i < events; ++i)
    co_await sim::WakeAt{scheduler, scheduler.now() + 1};
}

sim::Process one_shot(sim::Scheduler& scheduler) {
  co_await sim::WakeAt{scheduler, scheduler.now() + 1};
}

crypto::Key128 bench_key() {
  return crypto::Key128{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                        0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
}

struct QuickstartResult {
  std::uint64_t walks = 0;
  double wall_seconds = 0.0;
  double walks_per_sec = 0.0;
  double bits_per_sec = 0.0;
};

/// End-to-end: the quickstart covert-channel scenario (eviction-set build +
/// transmission), with the CPUID-selected AES backend and the pad cache —
/// the configuration experiments actually run under.
QuickstartResult run_quickstart() {
  channel::TestBed bed(channel::default_testbed_config(1));
  const auto payload = channel::alternating_bits(16);
  const auto start = Clock::now();
  const auto result =
      channel::run_covert_channel(bed, channel::ChannelConfig{}, payload);
  QuickstartResult out;
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const auto stats = bed.system().mee().stats();
  out.walks = stats.reads + stats.writes;
  out.walks_per_sec = static_cast<double>(out.walks) / out.wall_seconds;
  out.bits_per_sec =
      static_cast<double>(result.received.size()) / out.wall_seconds;
  keep(result.monitor_found);
  return out;
}

/// The fresh-vs-snapshot sweep benchmark: a setup-heavy mitigations sweep
/// (8 payload-bits points x 4 seeds; only the measure phase varies per
/// point, so snapshot reuse shares one Algorithm-1 setup per seed).
struct SweepBenchResult {
  std::size_t trials = 0;
  std::size_t shared_setups = 0;  ///< distinct warm states under reuse
  double fresh_seconds = 0.0;
  double snapshot_seconds = 0.0;
  double speedup = 0.0;
  /// Byte equality of the two runs' JSONL record streams — snapshot reuse
  /// must not change any result.
  bool identical_results = false;
};

SweepBenchResult run_sweep_bench() {
  const runtime::Experiment& experiment = runtime::get_experiment("mitigations");
  runtime::SweepSpec spec;
  spec.sets = {{"mee.cache.indexing", "modulo"}, {"setup_attempts", "1"}};
  spec.axes = {{"bits", {"16", "24", "32", "40", "48", "56", "64", "72"}}};
  spec.seeds = 4;
  const auto trials = runtime::expand_sweep(experiment, spec);

  // jobs=1: wall-clock contrast between the modes, undiluted by pool
  // scheduling noise. Results are jobs-independent either way.
  runtime::RunnerConfig config;
  config.jobs = 1;
  const auto timed = [&](bool reuse, std::vector<runtime::TrialRecord>* out,
                         runtime::SetupStats* stats) {
    config.reuse_setup = reuse;
    const auto start = Clock::now();
    *out = runtime::run_trials(experiment, trials, config, stats);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  SweepBenchResult result;
  result.trials = trials.size();
  std::vector<runtime::TrialRecord> fresh_records, snapshot_records;
  runtime::SetupStats fresh_stats, snapshot_stats;
  result.fresh_seconds = timed(false, &fresh_records, &fresh_stats);
  result.snapshot_seconds = timed(true, &snapshot_records, &snapshot_stats);
  result.shared_setups = snapshot_stats.builds;
  result.speedup = result.snapshot_seconds > 0.0
                       ? result.fresh_seconds / result.snapshot_seconds
                       : 0.0;
  std::ostringstream fresh_jsonl, snapshot_jsonl;
  runtime::write_jsonl(fresh_jsonl, fresh_records);
  runtime::write_jsonl(snapshot_jsonl, snapshot_records);
  result.identical_results = fresh_jsonl.str() == snapshot_jsonl.str();
  return result;
}

/// The campaign macro-benchmark: the trial-throughput engine, measured at
/// the margin. One campaign = a mitigations payload grid over shared
/// Algorithm-1 setups; the engine's cost is what one MORE trial on a warm
/// campaign costs (the fork/run/emit cycle), so the benchmark runs a base
/// grid and an extended grid over identical setups and differences them —
/// Algorithm-1 builds and first-use pool forks cancel exactly. Both modes
/// reuse setups; the A/B is config.recycle_systems: fresh System forks per
/// trial versus restoring snapshots in place into pooled TestBeds. Wall
/// time is min-based best-of-5 (contention only ever adds time);
/// allocation counts come from the binary's interposed operator new
/// (bench/alloc_count.cc) and are deterministic.
struct CampaignBenchResult {
  std::size_t trials = 0;          ///< extended-grid size (the marginal
                                   ///< window is trials - base_trials)
  std::size_t base_trials = 0;
  std::size_t shared_setups = 0;   ///< distinct warm states (Algorithm 1 runs)
  double recycled_ns_per_trial = 0.0;  ///< marginal, best-of-5
  double fresh_ns_per_trial = 0.0;
  double recycled_trials_per_sec = 0.0;
  double fresh_trials_per_sec = 0.0;
  double speedup = 0.0;            ///< fresh / recycled marginal cost
  double recycled_allocs_per_trial = 0.0;  ///< marginal, deterministic
  double fresh_allocs_per_trial = 0.0;
  double peak_rss_mb = 0.0;        ///< process VmHWM after both modes ran
  /// Byte equality of the two modes' extended-grid JSONL record streams —
  /// recycling must not change any result.
  bool identical_results = false;
};

/// The campaign/scaling benchmark grid: payload bits are measure-phase
/// locals, so every grid point shares the one warm setup — the shape that
/// exposes per-trial cost, not setup cost.
///
/// The measure payload is deliberately light (4-7 payload bits, 8 KiB /
/// 100-sample legit workload instead of the 192-bit / 256 KiB / 3000
/// defaults): at the default sizes a trial spends ~1.6 ms inside
/// measure_legit_workload plus ~1 ms transferring bits — channel-
/// simulation physics that is byte-identical in every mode and would
/// drown the engine being benchmarked. The heavy-payload path is covered
/// by the sweep section; these sections isolate trial turnaround.
std::vector<runtime::TrialSpec> mitigations_grid(std::size_t points) {
  const runtime::Experiment& experiment =
      runtime::get_experiment("mitigations");
  runtime::SweepSpec spec;
  spec.sets = {{"mee.cache.indexing", "modulo"},
               {"setup_attempts", "1"},
               {"legit_bytes", "8192"},
               {"legit_samples", "100"}};
  std::vector<std::string> bits;
  for (std::size_t i = 0; i < points; ++i)
    bits.push_back(std::to_string(4 + i));
  spec.axes = {{"bits", bits}};
  spec.seeds = 1;
  return runtime::expand_sweep(experiment, spec);
}

/// Tiles `base` to `copies` total repetitions. A throughput benchmark
/// needs identical-cost trials, not distinct specs, and the base grid
/// stays a strict prefix of the tiled grid — same setups, same first-use
/// forks, so base-vs-full differencing cancels them exactly.
std::vector<runtime::TrialSpec> tile_grid(
    const std::vector<runtime::TrialSpec>& base, int copies) {
  std::vector<runtime::TrialSpec> full = base;
  for (int copy = 1; copy < copies; ++copy)
    full.insert(full.end(), base.begin(), base.end());
  return full;
}

CampaignBenchResult run_campaign_bench() {
  const runtime::Experiment& experiment =
      runtime::get_experiment("mitigations");
  // A 256-trial marginal window over the tiled 4-point base grid: a
  // recycled trial is down to ~0.1-0.3 ms, so the window must be wide
  // enough that run-to-run noise in the (cancelling) ~70 ms Algorithm-1
  // setup cost cannot swamp the signal.
  const auto base_trials = mitigations_grid(4);
  const auto full_trials = tile_grid(base_trials, 65);

  // jobs=1 for an undiluted wall-clock contrast (results are
  // jobs-independent either way; the recycled pool is per-worker).
  runtime::RunnerConfig config;
  config.jobs = 1;
  config.reuse_setup = true;

  constexpr int kRepetitions = 5;
  struct ModeCost {
    double ns_per_trial = 0.0;
    double allocs_per_trial = 0.0;
  };
  const std::size_t window = full_trials.size() - base_trials.size();
  const auto timed = [&](bool recycle, std::vector<runtime::TrialRecord>* out,
                         runtime::SetupStats* stats) {
    config.recycle_systems = recycle;
    const auto one = [&](const std::vector<runtime::TrialSpec>& trials,
                         double* seconds, double* allocs) {
      double best = 0.0;
      std::uint64_t alloc_delta = 0;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        *stats = {};
        const std::uint64_t allocs_before = allocation_count();
        // Process CPU time, not wall time: the campaign runs jobs=1 in an
        // otherwise idle process, so CPU time IS the work done, and unlike
        // wall time it is immune to preemption on small shared CI hosts —
        // a single-vCPU runner with background load inflates wall-clock
        // marginals by 2-3x while CPU time stays put.
        timespec c0, c1;
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c0);
        *out = runtime::run_trials(experiment, trials, config, stats);
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c1);
        const double sec = static_cast<double>(c1.tv_sec - c0.tv_sec) +
                           1e-9 * static_cast<double>(c1.tv_nsec - c0.tv_nsec);
        if (rep == 0 || sec < best) best = sec;
        // Deterministic workload: any repetition's count is THE count.
        alloc_delta = allocation_count() - allocs_before;
      }
      *seconds = best;
      *allocs = static_cast<double>(alloc_delta);
    };
    double base_seconds = 0.0, base_allocs = 0.0;
    double full_seconds = 0.0, full_allocs = 0.0;
    one(base_trials, &base_seconds, &base_allocs);
    one(full_trials, &full_seconds, &full_allocs);
    ModeCost cost;
    cost.ns_per_trial = (full_seconds - base_seconds) * 1e9 /
                        static_cast<double>(window);
    cost.allocs_per_trial =
        (full_allocs - base_allocs) / static_cast<double>(window);
    return cost;
  };

  CampaignBenchResult result;
  result.trials = full_trials.size();
  result.base_trials = base_trials.size();
  std::vector<runtime::TrialRecord> recycled_records, fresh_records;
  runtime::SetupStats recycled_stats, fresh_stats;
  const ModeCost recycled = timed(true, &recycled_records, &recycled_stats);
  const ModeCost fresh = timed(false, &fresh_records, &fresh_stats);
  result.shared_setups = recycled_stats.builds;
  result.recycled_ns_per_trial = recycled.ns_per_trial;
  result.fresh_ns_per_trial = fresh.ns_per_trial;
  result.recycled_allocs_per_trial = recycled.allocs_per_trial;
  result.fresh_allocs_per_trial = fresh.allocs_per_trial;
  const auto per_sec = [](double ns) { return ns > 0.0 ? 1e9 / ns : 0.0; };
  result.recycled_trials_per_sec = per_sec(recycled.ns_per_trial);
  result.fresh_trials_per_sec = per_sec(fresh.ns_per_trial);
  result.speedup = recycled.ns_per_trial > 0.0
                       ? fresh.ns_per_trial / recycled.ns_per_trial
                       : 0.0;
  result.peak_rss_mb = peak_rss_mb();
  std::ostringstream recycled_jsonl, fresh_jsonl;
  runtime::write_jsonl(recycled_jsonl, recycled_records);
  runtime::write_jsonl(fresh_jsonl, fresh_records);
  result.identical_results = recycled_jsonl.str() == fresh_jsonl.str();
  return result;
}

/// The strong-scaling section: streaming-mode campaign throughput at
/// several --jobs values, measured at the margin like the campaign
/// benchmark (base grid vs tiled grid, setup costs cancel). Wall clock,
/// not CPU time — a scaling curve IS elapsed time across threads — so
/// throughput and efficiency are report-only on shared hosts (the PR 7/9
/// clock lesson); the deterministic jobs=1 streaming allocations/trial
/// figure is the gateable output and joins the tracked kernels.
struct ScalingPoint {
  unsigned jobs = 0;
  double trials_per_sec = 0.0;  ///< marginal streaming throughput
  double efficiency = 0.0;      ///< trials_per_sec / (jobs * jobs=1 rate)
};

struct ScalingBenchResult {
  std::size_t trials = 0;
  std::size_t base_trials = 0;
  std::size_t shared_setups = 0;
  double streaming_allocs_per_trial = 0.0;  ///< jobs=1 marginal, deterministic
  std::vector<ScalingPoint> points;
};

ScalingBenchResult run_scaling_bench() {
  const runtime::Experiment& experiment =
      runtime::get_experiment("mitigations");
  // A 5,000-trial marginal window: at jobs=4 a 256-trial window finishes in
  // ~25 ms, too short to resolve the thread hand-off from scheduler noise.
  const auto base_trials = mitigations_grid(4);
  const auto full_trials = tile_grid(base_trials, 1251);
  const std::size_t window = full_trials.size() - base_trials.size();

  // Commit sink that swallows lines: the section measures the runner's
  // run/encode/retire path, not the disk.
  struct DiscardStream final : runtime::ResultStream {
    void commit(std::size_t, const std::string*, std::size_t) override {}
  };
  DiscardStream discard;

  runtime::RunnerConfig config;
  config.reuse_setup = true;
  config.recycle_systems = true;
  config.stream = &discard;

  ScalingBenchResult result;
  result.trials = full_trials.size();
  result.base_trials = base_trials.size();

  // Allocations/trial of the streaming path, at jobs=1 where the count is
  // deterministic (the parallel count depends on thread interleaving; the
  // inline path runs the same encode/commit code minus the worker threads).
  {
    config.jobs = 1;
    runtime::SetupStats stats;
    const auto allocs = [&](const std::vector<runtime::TrialSpec>& trials) {
      const std::uint64_t before = allocation_count();
      runtime::run_trials(experiment, trials, config, &stats);
      return allocation_count() - before;
    };
    const std::uint64_t base_allocs = allocs(base_trials);
    const std::uint64_t full_allocs = allocs(full_trials);
    result.shared_setups = stats.builds;
    result.streaming_allocs_per_trial =
        static_cast<double>(full_allocs - base_allocs) /
        static_cast<double>(window);
  }

  std::vector<unsigned> job_counts = {1, 2, 4};
  if (const unsigned hw = std::thread::hardware_concurrency(); hw > 0)
    job_counts.push_back(hw);
  std::sort(job_counts.begin(), job_counts.end());
  job_counts.erase(std::unique(job_counts.begin(), job_counts.end()),
                   job_counts.end());

  // Best-of-3 per grid: the minimum filters scheduler/steal noise, which
  // only ever adds wall time.
  constexpr int kRepetitions = 3;
  const auto wall_best = [&](const std::vector<runtime::TrialSpec>& trials) {
    double best = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto start = Clock::now();
      runtime::run_trials(experiment, trials, config);
      const double sec =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (rep == 0 || sec < best) best = sec;
    }
    return best;
  };

  double jobs1_rate = 0.0;
  for (const unsigned jobs : job_counts) {
    config.jobs = jobs;
    const double base_sec = wall_best(base_trials);
    const double full_sec = wall_best(full_trials);
    const double marginal = full_sec - base_sec;
    ScalingPoint point;
    point.jobs = jobs;
    point.trials_per_sec =
        marginal > 0.0 ? static_cast<double>(window) / marginal : 0.0;
    if (jobs == 1) jobs1_rate = point.trials_per_sec;
    point.efficiency =
        jobs1_rate > 0.0
            ? point.trials_per_sec / (static_cast<double>(jobs) * jobs1_rate)
            : 0.0;
    result.points.push_back(point);
  }
  return result;
}

/// Pulls the name -> ns pairs out of a baseline report's
/// "kernels_ns_per_op" object. Minimal scan, matched to write_json's
/// output shape.
std::vector<std::pair<std::string, double>> parse_baseline_kernels(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> kernels;
  const auto section = text.find("\"kernels_ns_per_op\"");
  if (section == std::string::npos) return kernels;
  auto pos = text.find('{', section);
  const auto end = text.find('}', pos);
  if (pos == std::string::npos || end == std::string::npos) return kernels;
  while (true) {
    const auto name_start = text.find('"', pos + 1);
    if (name_start == std::string::npos || name_start > end) break;
    const auto name_end = text.find('"', name_start + 1);
    const auto colon = text.find(':', name_end);
    if (name_end == std::string::npos || colon == std::string::npos ||
        colon > end)
      break;
    kernels.emplace_back(
        text.substr(name_start + 1, name_end - name_start - 1),
        std::strtod(text.c_str() + colon + 1, nullptr));
    pos = text.find(',', colon);
    if (pos == std::string::npos || pos > end) break;
  }
  return kernels;
}

/// Per-kernel delta report against a baseline file. Returns false when any
/// kernel regressed by more than 15%; getting faster (or kernels appearing
/// or disappearing — backend availability differs across hosts) never
/// fails.
bool compare_with_baseline(
    const std::vector<std::pair<std::string, double>>& kernels,
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto baseline = parse_baseline_kernels(buffer.str());
  if (baseline.empty()) {
    std::fprintf(stderr, "no kernels_ns_per_op in baseline '%s'\n",
                 path.c_str());
    return false;
  }
  constexpr double kTolerance = 0.15;
  bool ok = true;
  std::size_t unbaselined = 0;
  std::size_t compared = 0, regressed = 0;
  std::fprintf(stderr, "compare vs %s (tolerance +%.0f%%):\n", path.c_str(),
               kTolerance * 100.0);
  for (const auto& [name, ns] : kernels) {
    double base = 0.0;
    for (const auto& [base_name, base_ns] : baseline)
      if (base_name == name) base = base_ns;
    if (base <= 0.0) {
      // Warn, don't fail: a kernel with no baseline entry has nothing to
      // regress against, but the gap should be visible so the baseline
      // gets regenerated rather than silently drifting out of date.
      std::fprintf(stderr,
                   "  %-28s %12.1f ns/op  WARNING: not in baseline\n",
                   name.c_str(), ns);
      ++unbaselined;
      continue;
    }
    const double delta = (ns - base) / base * 100.0;
    const bool slow = delta > kTolerance * 100.0;
    std::fprintf(stderr, "  %-28s %12.1f ns/op  %+7.1f%%%s\n", name.c_str(),
                 ns, delta, slow ? "  REGRESSION" : "");
    ++compared;
    if (slow) {
      ok = false;
      ++regressed;
    }
  }
  // One kernel regressing points at a code change; half the suite
  // regressing at once points at the host (burstable VMs throttle for
  // minutes after sustained load, and CPU-time clocks can't hide the
  // frequency dip). Still a FAIL — a global slowdown could be real — but
  // say so, so CI triage starts with a rerun instead of a bisect.
  if (regressed * 2 >= compared && regressed > 1)
    std::fprintf(stderr,
                 "note: %zu of %zu kernels regressed together — likely a "
                 "throttled/contended host rather than a code regression; "
                 "rerun on a quiet machine before bisecting\n",
                 regressed, compared);
  if (unbaselined > 0)
    std::fprintf(stderr,
                 "warning: %zu kernel%s missing from '%s' — regenerate the "
                 "baseline with `meecc_bench perf --out %s` to cover %s\n",
                 unbaselined, unbaselined == 1 ? "" : "s", path.c_str(),
                 path.c_str(), unbaselined == 1 ? "it" : "them");
  std::size_t baseline_only = 0;
  for (const auto& [name, base_ns] : baseline) {
    bool present = false;
    for (const auto& [current_name, ns] : kernels)
      if (current_name == name) present = true;
    if (!present) {
      std::fprintf(stderr, "  %-28s (baseline %.1f ns/op, not run here)\n",
                   name.c_str(), base_ns);
      ++baseline_only;
    }
  }
  // The one line worth scrolling to in a CI log: how much of the suite the
  // comparison actually covered, so skipped or missing kernels (baseline
  // drift after adding a section) are visible at a glance.
  std::fprintf(stderr,
               "compare summary: %zu compared, %zu regressed, %zu missing "
               "from baseline, %zu in baseline but not run — %s\n",
               compared, regressed, unbaselined, baseline_only,
               ok ? "ok" : "FAIL");
  return ok;
}

void write_json(std::ostream& os,
                const std::vector<std::pair<std::string, double>>& kernels,
                const std::vector<std::pair<std::string, double>>& speedups,
                const QuickstartResult& quickstart,
                const SweepBenchResult* sweep,
                const CampaignBenchResult* campaign,
                const ScalingBenchResult* scaling, bool checked,
                bool check_passed) {
  os << "{\n  \"schema\": \"meecc.bench.hotpath.v1\",\n  \"kernels_ns_per_op\": {";
  bool first = true;
  for (const auto& [name, ns] : kernels) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << ns;
    first = false;
  }
  os << "\n  },\n  \"speedup\": {";
  first = true;
  for (const auto& [name, ratio] : speedups) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << ratio;
    first = false;
  }
  os << "\n  },\n  \"quickstart\": {\n"
     << "    \"walks\": " << quickstart.walks << ",\n"
     << "    \"wall_seconds\": " << quickstart.wall_seconds << ",\n"
     << "    \"walks_per_sec\": " << quickstart.walks_per_sec << ",\n"
     << "    \"bits_per_sec\": " << quickstart.bits_per_sec << "\n  }";
  if (sweep != nullptr)
    os << ",\n  \"sweep\": {\n"
       << "    \"experiment\": \"mitigations\",\n"
       << "    \"trials\": " << sweep->trials << ",\n"
       << "    \"shared_setups\": " << sweep->shared_setups << ",\n"
       << "    \"fresh_seconds\": " << sweep->fresh_seconds << ",\n"
       << "    \"snapshot_seconds\": " << sweep->snapshot_seconds << ",\n"
       << "    \"speedup\": " << sweep->speedup << ",\n"
       << "    \"identical_results\": "
       << (sweep->identical_results ? "true" : "false") << "\n  }";
  if (campaign != nullptr)
    os << ",\n  \"campaign\": {\n"
       << "    \"experiment\": \"mitigations\",\n"
       << "    \"trials\": " << campaign->trials << ",\n"
       << "    \"base_trials\": " << campaign->base_trials << ",\n"
       << "    \"shared_setups\": " << campaign->shared_setups << ",\n"
       << "    \"recycled_ns_per_trial\": " << campaign->recycled_ns_per_trial
       << ",\n"
       << "    \"fresh_ns_per_trial\": " << campaign->fresh_ns_per_trial
       << ",\n"
       << "    \"recycled_trials_per_sec\": "
       << campaign->recycled_trials_per_sec << ",\n"
       << "    \"fresh_trials_per_sec\": " << campaign->fresh_trials_per_sec
       << ",\n"
       << "    \"speedup\": " << campaign->speedup << ",\n"
       << "    \"recycled_allocs_per_trial\": "
       << campaign->recycled_allocs_per_trial << ",\n"
       << "    \"fresh_allocs_per_trial\": "
       << campaign->fresh_allocs_per_trial << ",\n"
       << "    \"peak_rss_mb\": " << campaign->peak_rss_mb << ",\n"
       << "    \"identical_results\": "
       << (campaign->identical_results ? "true" : "false") << "\n  }";
  if (scaling != nullptr) {
    os << ",\n  \"scaling\": {\n"
       << "    \"experiment\": \"mitigations\",\n"
       << "    \"trials\": " << scaling->trials << ",\n"
       << "    \"base_trials\": " << scaling->base_trials << ",\n"
       << "    \"shared_setups\": " << scaling->shared_setups << ",\n"
       << "    \"streaming_allocs_per_trial\": "
       << scaling->streaming_allocs_per_trial << ",\n"
       << "    \"points\": [";
    bool first_point = true;
    for (const ScalingPoint& point : scaling->points) {
      os << (first_point ? "\n" : ",\n")
         << "      {\"jobs\": " << point.jobs
         << ", \"trials_per_sec\": " << point.trials_per_sec
         << ", \"efficiency\": " << point.efficiency << "}";
      first_point = false;
    }
    os << "\n    ]\n  }";
  }
  if (checked)
    os << ",\n  \"check\": {\n"
       << "    \"passed\": " << (check_passed ? "true" : "false") << "\n  }";
  os << "\n}\n";
}

}  // namespace

int run_perf_suite(const PerfOptions& options) {
  std::vector<std::pair<std::string, double>> kernels;
  // Min-merge across passes (below): the same kernel re-recorded keeps its
  // best time, so one clean window anywhere in the run settles its value.
  const auto record = [&](const std::string& name, double ns) {
    std::fprintf(stderr, "  %-28s %12.1f ns/op\n", name.c_str(), ns);
    for (auto& [existing, best] : kernels)
      if (existing == name) {
        best = std::min(best, ns);
        return;
      }
    kernels.emplace_back(name, ns);
  };

  // The whole kernel list runs several times and each kernel keeps its
  // per-pass minimum. ns_per_op's min-of-reps filters noise shorter than
  // one repetition, but a host-noise burst (CPU steal, a frequency dip on
  // a shared runner) outlasting a kernel's back-to-back repetitions
  // inflates all of them at once; observed bursts are shorter than a full
  // pass over the list, so spacing a kernel's chances a pass apart lets
  // min-merge recover the true floor.
  constexpr int kKernelPasses = 3;
  const auto collect_kernels = [&] {
  // --- AES block: the reference cipher and the CPUID-selected backend ------
  {
    const crypto::Aes128 reference(bench_key());
    record("aes_block.reference", ns_per_op([&](std::uint64_t iters) {
             crypto::Block block{};
             for (std::uint64_t i = 0; i < iters; ++i)
               block = reference.encrypt(block);
             keep(block);
           }));
  }
  if (const auto aes = crypto::make_aes_backend(bench_key());
      aes->name() == "aesni") {
    record("aes_block.aesni", ns_per_op([&](std::uint64_t iters) {
             crypto::Block block{};
             for (std::uint64_t i = 0; i < iters; ++i)
               block = aes->encrypt(block);
             keep(block);
           }));
    // Pipelined encrypt_blocks, ns per block: the line keystream feeds the
    // backend four independent counter blocks at a time, and on AES-NI the
    // rounds pipeline across them, so ns/block lands well under the
    // single-block figure.
    record("aes_block.aesni_x8", ns_per_op([&](std::uint64_t iters) {
             crypto::Block blocks[8]{};
             for (std::uint64_t i = 0; i < iters; i += 8)
               aes->encrypt_blocks(blocks, blocks, 8);
             keep(blocks[7]);
           }));
  }

  // --- line encrypt: keystream cache cold (fresh nonce) vs hot ------------
  {
    const crypto::LineCipher cipher(bench_key());
    record("line_encrypt.cold", ns_per_op([&](std::uint64_t iters) {
             crypto::LineData line{};
             for (std::uint64_t i = 0; i < iters; ++i)
               line = cipher.encrypt(line, 0x1000, i + 1);
             keep(line);
           }));
    record("line_encrypt.hot", ns_per_op([&](std::uint64_t iters) {
             crypto::LineData line{};
             for (std::uint64_t i = 0; i < iters; ++i)
               line = cipher.encrypt(line, 0x1000, 1);
             keep(line);
           }));
  }

  // --- cache probe: one SIMD find_slot over a full set's tag row ----------
  {
    const auto geometry = cache::mee_cache_geometry();
    cache::SetAssocCache cache(geometry, cache::ReplacementKind::kTreePlru,
                               Rng(7));
    // Fill one set so every probe scans a full row; alternate a resident
    // and a non-resident tag so hit and miss paths both stay exercised.
    std::vector<PhysAddr> resident;
    for (std::uint32_t w = 0; w < geometry.ways; ++w) {
      const PhysAddr a = geometry.line_address(w + 1, 0);
      cache.fill(a);
      resident.push_back(a);
    }
    const PhysAddr absent = geometry.line_address(geometry.ways + 1, 0);
    std::fprintf(stderr, "  (tag probe: %s)\n", cache::detail::tag_probe_name());
    record("set.find_slot", ns_per_op([&](std::uint64_t iters) {
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < iters; ++i) {
               const PhysAddr probe =
                   (i & 1) ? absent : resident[(i >> 1) % resident.size()];
               acc += cache.contains(probe);
             }
             keep(acc);
           }));
  }

  // --- hierarchy: the channel's access+clflush pair through System --------
  // One protected line read (an LLC miss, since it was just flushed, so
  // the MEE serves it from its cache) and flushed again, on the fig7
  // machine with crypto off: the inner step of Algorithms 1 and 2.
  {
    sim::SystemConfig config = channel::default_testbed_config(7).system;
    config.mee.functional_crypto = false;
    sim::System system(config);
    mem::VirtualAddressSpace vas;
    const VirtAddr page{0x7000'0000'0000ULL};
    vas.map_page(page, system.epc_allocator().allocate_frame());
    const VirtAddr line = page + 3 * kLineSize;
    Cycles now = 0;
    record("hierarchy.touch_flush", ns_per_op([&](std::uint64_t iters) {
             for (std::uint64_t i = 0; i < iters; ++i) {
               now += system
                          .do_read(CoreId{0}, CpuMode::kEnclave, vas, line,
                                   now)
                          .latency;
               now += system.do_clflush(vas, line);
             }
           }));
  }

  // --- multilinear MAC tag: pad cache cold vs hot -------------------------
  {
    const crypto::MultilinearMac mac(bench_key());
    record("mac_tag.cold", ns_per_op([&](std::uint64_t iters) {
             const crypto::LineData line{};
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < iters; ++i)
               acc ^= mac.tag(0x40, i + 1, line);
             keep(acc);
           }));
    record("mac_tag.hot", ns_per_op([&](std::uint64_t iters) {
             const crypto::LineData line{};
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < iters; ++i)
               acc ^= mac.tag(0x40, 1, line);
             keep(acc);
           }));
  }

  // --- MEE tree walk: cold (full walk to root) vs versions hit ------------
  // The chunk is written once so every tree level carries a real MAC (a
  // never-written chunk is all genesis nodes and verifies no MAC at all).
  // flush_all() empties the MEE cache but not the pad caches, so after the
  // first iteration a cold walk verifies four MACs with warm pads — the
  // walk as a prime+probe loop re-walking an evicted chunk sees it.
  {
    const mem::AddressMap map(
        mem::AddressMapConfig{.general_size = 1 << 20, .epc_size = 4 << 20});
    mem::PhysicalMemory memory;
    mee::MeeEngine engine(map, memory, mee::MeeConfig{}, Rng(1));
    const PhysAddr addr = map.protected_data().base;
    engine.write_line(CoreId{0}, addr, mem::Line{});  // materialize the MACs
    record("mee_walk.cold", ns_per_op(
                                [&](std::uint64_t iters) {
                                  for (std::uint64_t i = 0; i < iters; ++i) {
                                    engine.mutable_cache().flush_all();
                                    keep(engine.read_line(CoreId{0}, addr));
                                  }
                                },
                                /*min_seconds=*/0.05, /*start_iters=*/16));
    engine.read_line(CoreId{0}, addr);  // warm
    record("mee_walk.hot", ns_per_op([&](std::uint64_t iters) {
             for (std::uint64_t i = 0; i < iters; ++i)
               keep(engine.read_line(CoreId{0}, addr));
           }));
  }

  // --- scheduler: per-event dispatch and spawn/complete churn -------------
  record("scheduler.dispatch", ns_per_op([](std::uint64_t iters) {
           sim::Scheduler scheduler;
           scheduler.spawn(ticker(scheduler, iters));
           scheduler.run_to_completion();
         }));
  record("scheduler.churn", ns_per_op([](std::uint64_t iters) {
           sim::Scheduler scheduler;
           // Ambient arena: spawn-time frames recycle through the
           // scheduler's size-class freelists instead of the global heap.
           sim::FrameArena::Scope scope(&scheduler.arena());
           for (std::uint64_t i = 0; i < iters; ++i)
             scheduler.spawn(one_shot(scheduler));
           scheduler.run_to_completion();
         }));
  // Many agents sharing every timestamp: each cycle is one epoch of 64
  // same-time events drained from a flat bucket, the shape the epoch
  // scheduler exists for (dispatch above is its worst case — one event per
  // distinct timestamp).
  record("scheduler.epoch_drain", ns_per_op([](std::uint64_t iters) {
           sim::Scheduler scheduler;
           sim::FrameArena::Scope scope(&scheduler.arena());
           constexpr std::uint64_t kAgents = 64;
           const std::uint64_t rounds = iters / kAgents + 1;
           for (std::uint64_t a = 0; a < kAgents; ++a)
             scheduler.spawn(ticker(scheduler, rounds));
           scheduler.run_to_completion();
         }));
  };  // collect_kernels

  for (int pass = 0; pass < kKernelPasses; ++pass) {
    if (pass > 0) std::fprintf(stderr, "  --- pass %d (min-merged) ---\n",
                               pass + 1);
    collect_kernels();
  }

  // The speedup ratio reads the merged minima, so both operands come from
  // the same (cleanest-window) estimator.
  double reference_ns = 0.0, aesni_ns = 0.0;
  for (const auto& [name, ns] : kernels) {
    if (name == "aes_block.reference") reference_ns = ns;
    if (name == "aes_block.aesni") aesni_ns = ns;
  }
  std::vector<std::pair<std::string, double>> speedups;
  if (reference_ns > 0.0 && aesni_ns > 0.0)
    speedups.emplace_back("aes_block.aesni_vs_reference",
                          reference_ns / aesni_ns);

  // --- end to end ---------------------------------------------------------
  std::fprintf(stderr, "  quickstart end-to-end...\n");
  const QuickstartResult quickstart = run_quickstart();
  std::fprintf(stderr, "  %-28s %12.0f walks/sec (%llu walks in %.2fs)\n",
               "quickstart.e2e", quickstart.walks_per_sec,
               static_cast<unsigned long long>(quickstart.walks),
               quickstart.wall_seconds);

  // --- sweep: fresh vs snapshot/fork setup reuse --------------------------
  SweepBenchResult sweep;
  if (options.run_sweep) {
    std::fprintf(stderr, "  sweep fresh-vs-snapshot...\n");
    sweep = run_sweep_bench();
    std::fprintf(stderr,
                 "  %-28s fresh %.2fs, snapshot %.2fs (%.1fx, %zu setups for "
                 "%zu trials), results %s\n",
                 "sweep.mitigations", sweep.fresh_seconds,
                 sweep.snapshot_seconds, sweep.speedup, sweep.shared_setups,
                 sweep.trials,
                 sweep.identical_results ? "identical" : "DIFFERENT");
  }

  // --- campaign: trial throughput, recycled vs fresh System forks ---------
  CampaignBenchResult campaign;
  if (options.run_campaign) {
    std::fprintf(stderr, "  campaign recycled-vs-fresh...\n");
    campaign = run_campaign_bench();
    std::fprintf(stderr,
                 "  %-28s %.1f trials/sec recycled, %.1f fresh (%.1fx "
                 "marginal, %zu-trial window, %zu setups), results %s\n",
                 "campaign.mitigations", campaign.recycled_trials_per_sec,
                 campaign.fresh_trials_per_sec, campaign.speedup,
                 campaign.trials - campaign.base_trials,
                 campaign.shared_setups,
                 campaign.identical_results ? "identical" : "DIFFERENT");
    std::fprintf(stderr,
                 "  %-28s %.0f allocs/trial recycled, %.0f fresh; peak RSS "
                 "%.1f MiB\n",
                 "", campaign.recycled_allocs_per_trial,
                 campaign.fresh_allocs_per_trial, campaign.peak_rss_mb);
    // The --compare gate tracks the campaign through its allocation counts,
    // not its wall time: the deterministic workload makes allocs/trial
    // byte-stable across runs and hosts (wall time on a small shared CI
    // box is not), and a de-pooled buffer or leaky bed pool moves the
    // count by far more than the 15% tolerance. The comparator is a
    // smaller-is-better scalar check, so the entries ride alongside the
    // ns kernels; throughput itself is tracked in the "campaign" section.
    kernels.emplace_back("campaign.allocs_per_trial",
                         campaign.recycled_allocs_per_trial);
    kernels.emplace_back("campaign.allocs_per_trial_fresh",
                         campaign.fresh_allocs_per_trial);
  }

  // --- scaling: streaming-mode throughput vs --jobs -----------------------
  ScalingBenchResult scaling;
  if (options.run_scaling) {
    std::fprintf(stderr, "  campaign strong scaling (streaming mode)...\n");
    scaling = run_scaling_bench();
    bool first_point = true;
    for (const ScalingPoint& point : scaling.points) {
      std::fprintf(stderr,
                   "  %-28s jobs=%-3u %10.1f trials/sec  efficiency %4.2f\n",
                   first_point ? "scaling.mitigations" : "", point.jobs,
                   point.trials_per_sec, point.efficiency);
      first_point = false;
    }
    std::fprintf(stderr,
                 "  %-28s %.0f allocs/trial streaming (jobs=1 marginal)\n",
                 "", scaling.streaming_allocs_per_trial);
    kernels.emplace_back("campaign.allocs_per_trial_streaming",
                         scaling.streaming_allocs_per_trial);
  }

  bool check_passed = true;
  if (options.check) {
    if (options.run_sweep && !sweep.identical_results) {
      std::fprintf(stderr,
                   "check: snapshot-reuse results differ from fresh: FAIL\n");
      check_passed = false;
    }
    if (options.run_campaign) {
      if (!campaign.identical_results) {
        std::fprintf(stderr,
                     "check: recycled-fork results differ from fresh: FAIL\n");
        check_passed = false;
      }
      // The zero-allocation result path plus pooled beds must keep the
      // recycled trial cycle at a small fraction of fresh-fork allocation
      // traffic; a leaky pool or a de-pooled buffer shows up here.
      const bool allocs_ok = campaign.recycled_allocs_per_trial <=
                             0.10 * campaign.fresh_allocs_per_trial;
      std::fprintf(stderr,
                   "check: campaign allocs/trial recycled %.0f vs fresh %.0f "
                   "(needs <= 10%%): %s\n",
                   campaign.recycled_allocs_per_trial,
                   campaign.fresh_allocs_per_trial, allocs_ok ? "ok" : "FAIL");
      if (!allocs_ok) check_passed = false;
    }
    if (options.run_scaling && options.run_campaign) {
      // Streaming swaps record retention for worker-side encoding; reusing
      // each ring slot's record and line buffers must keep the per-trial
      // allocation count in the recycled in-memory path's regime. Both
      // figures are deterministic jobs=1 marginals, so the bound is tight:
      // 10% headroom plus a small absolute slack for the runner's
      // fixed-size warmup objects amortized over the window.
      const bool streaming_ok =
          scaling.streaming_allocs_per_trial <=
          1.10 * campaign.recycled_allocs_per_trial + 8.0;
      std::fprintf(stderr,
                   "check: streaming allocs/trial %.1f vs recycled %.1f "
                   "(needs <= 1.1x + 8): %s\n",
                   scaling.streaming_allocs_per_trial,
                   campaign.recycled_allocs_per_trial,
                   streaming_ok ? "ok" : "FAIL");
      if (!streaming_ok) check_passed = false;
    }
  }
  if (!options.compare_path.empty() &&
      !compare_with_baseline(kernels, options.compare_path))
    check_passed = false;

  std::ostringstream json;
  write_json(json, kernels, speedups, quickstart,
             options.run_sweep ? &sweep : nullptr,
             options.run_campaign ? &campaign : nullptr,
             options.run_scaling ? &scaling : nullptr, options.check,
             check_passed);
  if (options.out_path == "-") {
    std::cout << json.str();
  } else {
    std::ofstream out(options.out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   options.out_path.c_str());
      return 1;
    }
    out << json.str();
    std::fprintf(stderr, "wrote %s\n", options.out_path.c_str());
  }
  return check_passed ? 0 : 1;
}

}  // namespace meecc::bench
