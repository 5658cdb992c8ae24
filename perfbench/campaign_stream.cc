// campaign_stream: a streaming campaign shard (1/1, fresh directory per
// round) over the light mitigations grid: payload bits 4..7 at three fresh
// seeds per round, 8 KiB / 100-sample legit workload, tiled into 5004
// trials. Every trial shares one of three Algorithm 1 setups and recycles
// its beds, so the runtime dominates: setup resolve, bed rewind, JSONL
// encode and the shard commits.
//
// It runs at jobs=1, where run_trials runs each trial, encodes it and
// commits it inline on the calling thread. At jobs=2 the per-trial latency
// (run entry to on_trial) waits on the committer and the slower worker,
// and on a shared 4-vCPU host its 90th percentile ranged from 0.4 to
// 6.4 ms between runs (NOTES.md), so the MPSC queue, the committer and
// its reorder buffer are not on the measured path.
//
// Checked after each round's timed window: every tiled copy of a spec
// gives the same JSONL line apart from the trial index, the shard has one
// line per trial, and merge_campaign accepts the directory.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <streambuf>
#include <string>

#include "report.h"
#include "runtime/campaign.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"
#include "trial_clock.h"

namespace meecc::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSeeds = 3;
constexpr int kPoints = 4;
constexpr std::size_t kCopies = 417;
constexpr std::size_t kTinyCopies = 8;
constexpr int kSetupReps = 11;

/// Round `round`'s campaign: the grid at three fresh seeds, tiled.
std::vector<runtime::TrialSpec> expand(const Options& options, int round) {
  const runtime::Experiment& experiment =
      runtime::get_experiment("mitigations");
  runtime::SweepSpec spec;
  spec.sets = {{"mee.cache.indexing", "modulo"},
               {"setup_attempts", "1"},
               {"legit_bytes", "8192"},
               {"legit_samples", "100"}};
  std::vector<std::string> bits;
  for (int i = 0; i < kPoints; ++i) bits.push_back(std::to_string(4 + i));
  spec.axes = {{"bits", bits}};
  spec.seeds = kSeeds;
  spec.base_seed = round_seed(options.seed, round) * kSeeds;
  const std::vector<runtime::TrialSpec> base =
      runtime::expand_sweep(experiment, spec);
  const std::size_t copies = options.tiny ? kTinyCopies : kCopies;
  std::vector<runtime::TrialSpec> trials;
  trials.reserve(base.size() * copies);
  for (std::size_t copy = 0; copy < copies; ++copy)
    for (const auto& trial : base) {
      trials.push_back(trial);
      trials.back().trial_index = trials.size() - 1;
    }
  return trials;
}

/// A JSONL line with its `"trial":N` member removed.
std::string without_trial_index(const std::string& line) {
  const std::string key = "\"trial\":";
  const auto at = line.find(key);
  if (at == std::string::npos) return line;
  auto end = at + key.size();
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  if (end < line.size() && line[end] == ',') ++end;
  return line.substr(0, at) + line.substr(end);
}

/// Swallows merge_campaign's output: the check is that it validates.
class DiscardBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

struct RoundCheck {
  std::uint64_t passed = 0;
  std::string problem;
};

/// Streams the shard JSONL (no copy held in memory, so the check does not
/// move peak RSS) and validates the directory with merge_campaign.
/// Feeds the lines to `digest` when non-null.
RoundCheck check_round(const std::string& dir, std::size_t trials,
                       std::size_t base_size,
                       const runtime::CampaignShardResult& result,
                       Digest* digest) {
  RoundCheck check;
  std::ifstream in(runtime::shard_jsonl_path(dir, runtime::ShardSpec{}));
  std::vector<std::string> base;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (digest != nullptr) {
      digest->add(line);
      digest->add("\n");
    }
    std::string body = without_trial_index(line);
    const bool ok = body.find("\"ok\":true") != std::string::npos;
    if (lines < base_size) {
      if (ok) ++check.passed;
      base.push_back(std::move(body));
    } else if (lines < trials && ok && body == base[lines % base_size]) {
      ++check.passed;
    }
    ++lines;
  }
  if (lines != trials)
    check.problem = "shard has " + std::to_string(lines) + " lines for " +
                    std::to_string(trials) + " trials";
  if (result.failures != 0 || !result.manifest.complete())
    check.problem = "shard reports failed or uncommitted trials";
  DiscardBuf discard;
  std::ostream sink(&discard);
  try {
    const runtime::MergeResult merged = runtime::merge_campaign(dir, sink);
    if (merged.trials != trials) check.problem = "merge lost trials";
  } catch (const std::exception& e) {
    check.problem = std::string("merge_campaign: ") + e.what();
  }
  return check;
}

struct Phase {
  RoundCosts costs;
  LatencyLog latency;
  std::uint64_t attempted = 0, passed = 0;
  Digest digest;  ///< shard JSONL of the first kDigestRounds rounds
  runtime::SetupStats stats;  ///< summed over the same rounds
  std::size_t digest_trials = 0;
  std::string problem;
  SpanLog spans;
};

Phase run_phase(const Options& options, double seconds, int min_rounds,
                bool traced) {
  const std::size_t base_size = static_cast<std::size_t>(kSeeds * kPoints);
  const runtime::Experiment& experiment =
      runtime::get_experiment("mitigations");
  TrialClock clock;
  const runtime::Experiment wrapped = clock.wrap(experiment, experiment.run);
  runtime::CampaignShardOptions shard;
  shard.streaming = true;
  shard.runner.jobs = 1;
  shard.runner.on_trial = [&clock](const runtime::TrialRecord& r) {
    clock.done(r);
  };

  Phase phase;
  std::uint64_t item_base = 0;
  const std::string prefix = work_dir() + "/campaign-" +
                             std::to_string(::getpid()) +
                             (traced ? "-traced-" : "-");
  run_rounds(seconds, min_rounds, [&](int round) {
    const std::vector<runtime::TrialSpec> trials = expand(options, round);
    shard.directory = prefix + std::to_string(round);
    fs::remove_all(shard.directory);
    fs::create_directories(shard.directory);
    clock.reset(trials.size());
    runtime::CampaignShardResult result;
    const double wall = phase.costs.measure(trials.size(), [&] {
      result = runtime::run_campaign_shard(wrapped, trials, shard);
    });
    clock.add_latency(phase.latency);
    if (traced) clock.append_spans(phase.spans, {}, item_base);
    item_base += trials.size();

    const bool digest_round = round < kDigestRounds;
    const RoundCheck check =
        check_round(shard.directory, trials.size(), base_size, result,
                    digest_round ? &phase.digest : nullptr);
    phase.attempted += trials.size();
    phase.passed += check.passed;
    if (!check.problem.empty()) phase.problem = check.problem;
    if (digest_round) {
      phase.stats.memory_hits += result.setup_stats.memory_hits;
      phase.stats.disk_hits += result.setup_stats.disk_hits;
      phase.stats.builds += result.setup_stats.builds;
      phase.stats.bed_recycles += result.setup_stats.bed_recycles;
      phase.stats.bed_discards += result.setup_stats.bed_discards;
      phase.digest_trials += trials.size();
    }
    fs::remove_all(shard.directory);
    return wall;
  });
  return phase;
}

void add_layers(Outcome& out, const Phase& untraced, const Phase& traced) {
  const std::vector<double> handoff =
      traced.spans.durations_ms("runtime.handoff");
  // Setup and bed statistics per round, over the digest rounds.
  const runtime::SetupStats& stats = traced.stats;
  const double rounds = kDigestRounds;
  const double lookups = static_cast<double>(
      stats.memory_hits + stats.disk_hits + stats.builds);
  out.layer("runtime.trial_body_ms_p50",
            median(traced.spans.durations_ms("runtime.trial", true)));
  out.layer("runtime.handoff_ms_p50", median(handoff));
  out.layer("runtime.handoff_ms_tail", latency_tail(handoff).value);
  out.layer("runtime.setup_builds", static_cast<double>(stats.builds) / rounds);
  out.layer("runtime.setup_hit_ratio",
            ratio(static_cast<double>(stats.memory_hits + stats.disk_hits),
                  lookups));
  out.layer("runtime.bed_recycle_ratio",
            ratio(static_cast<double>(stats.bed_recycles),
                  static_cast<double>(traced.digest_trials)));
  out.layer("runtime.bed_discards",
            static_cast<double>(stats.bed_discards) / rounds);
  out.layer("runtime.allocs_per_trial",
            median(untraced.costs.allocs_per_item));
  out.layer("runtime.sys_s", median(untraced.costs.sys_s));
  out.layer("trace.overhead_ratio",
            ratio(median(untraced.costs.rates), median(traced.costs.rates)));
}

}  // namespace

Outcome run_campaign_stream(const Options& options) {
  Outcome out;
  // Set-up: registry lookup, sweep expansion, tiling and the fresh
  // campaign directory, repeated; the median.
  std::vector<double> setup_s;
  const std::string setup_dir =
      work_dir() + "/campaign-setup-" + std::to_string(::getpid());
  std::size_t trials = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    trials = expand(options, 0).size();
    fs::create_directories(setup_dir);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    fs::remove_all(setup_dir);
  }
  out.note("trials_per_round", std::to_string(trials));
  out.note("distinct_specs", std::to_string(kSeeds * kPoints));

  // The traced run's two phases only feed per-layer figures, so they keep
  // to the digest rounds' minimum.
  const Phase untraced = run_phase(
      options, options.trace ? options.seconds / 2 : options.seconds,
      kDigestRounds, false);
  out.note("digest", untraced.digest.hex());
  if (!untraced.problem.empty())
    out.fail("campaign_stream: " + untraced.problem);
  out.attempted = untraced.attempted;
  std::uint64_t passed = untraced.passed;
  if (!options.trace) {
    add_end_to_end(out, options, setup_s, untraced.costs, untraced.latency,
                   untraced.passed, untraced.attempted);
  } else {
    const Phase traced =
        run_phase(options, options.seconds / 2, kDigestRounds, true);
    if (!traced.problem.empty())
      out.fail("campaign_stream traced: " + traced.problem);
    if (traced.digest.value() != untraced.digest.value() ||
        traced.stats.builds != untraced.stats.builds ||
        traced.stats.memory_hits != untraced.stats.memory_hits)
      out.fail("campaign_stream: traced counts differ from untraced");
    add_layers(out, untraced, traced);
    traced.spans.write_csv(work_dir() + "/spans-campaign_stream.csv");
    out.note("items_per_s_untraced", fmt(median(untraced.costs.rates)));
    out.note("items_per_s_traced", fmt(median(traced.costs.rates)));
    out.attempted += traced.attempted;
    passed += traced.passed;
  }
  out.failed = out.attempted - passed;
  if (out.failed != 0)
    out.fail("campaign_stream: " + std::to_string(out.failed) +
             " trials failed their check");
  return out;
}

}  // namespace meecc::perfbench
