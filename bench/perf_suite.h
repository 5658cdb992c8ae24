// The `meecc_bench perf` subcommand: a dependency-free (no google-benchmark)
// hot-path timing suite that emits BENCH_hotpath.json — the tracked perf
// baseline CI compares against. Kernels cover every layer the covert-channel
// experiments stress: raw AES blocks (reference and the CPUID-selected
// backend), line encryption and MAC tagging with the keystream/pad cache
// cold and hot, MEE tree walks, scheduler dispatch, and the end-to-end
// quickstart scenario (walks/sec).
// A `sweep` section times a setup-heavy mitigations sweep fresh vs with
// snapshot/fork setup reuse and records the speedup plus a byte-level
// equality check of the two result sets.
#pragma once

#include <string>

namespace meecc::bench {

struct PerfOptions {
  std::string out_path = "BENCH_hotpath.json";  ///< "-" = stdout
  /// Enforce the tracked expectations (snapshot-reuse and recycled-bed
  /// results identical to fresh; recycled and streaming trials allocating
  /// a small fraction of fresh ones) and make the exit code nonzero when
  /// they fail.
  bool check = false;
  /// Baseline BENCH_hotpath.json to diff against: prints per-kernel deltas
  /// and fails (nonzero exit) when any kernel is more than 15% slower than
  /// the baseline. Getting faster never fails. Empty = no comparison.
  std::string compare_path;
  /// Run the fresh-vs-snapshot sweep benchmark (the slowest section;
  /// --no-sweep skips it for quick kernel-only runs).
  bool run_sweep = true;
  /// Run the campaign macro-benchmark: trial throughput (recycled vs fresh
  /// System forks), allocations/trial, peak RSS over a mitigations payload
  /// grid. --no-campaign skips it. Under --check the recycled mode must
  /// produce byte-identical results and allocate <= 10% of fresh per trial.
  bool run_campaign = true;
  /// Run the strong-scaling section: streaming-mode campaign throughput and
  /// parallel efficiency at jobs in {1, 2, 4, hw}. Throughput/efficiency
  /// are report-only (wall clocks are not gateable on shared hosts — the
  /// PR 7/9 clock lesson); the deterministic streaming allocations/trial
  /// figure joins the tracked kernels and the --check gate. --no-scaling
  /// skips it.
  bool run_scaling = true;
};

/// Runs the suite. The caller must have registered the builtin experiments
/// (the sweep section runs the "mitigations" experiment). Returns a process
/// exit code.
int run_perf_suite(const PerfOptions& options);

}  // namespace meecc::bench
