// fig7_figure: time-to-result of the headline paper figure. The registered
// fig7_window_sweep experiment at its seven default windows and default
// payload (1500 bits), one fresh seed per round, through
// runtime::run_trials at jobs=1. Every trial builds a fresh machine, so
// nothing is shared between trials: the time is TestBed construction,
// Algorithm 1 + monitor discovery, and the transfer. Committer, recycling
// and crypto are bypassed (functional_crypto=false).
//
// The traced run replaces the experiment body with the same calls made
// one at a time (TestBed, setup_covert_channel, transfer_covert_channel on
// runtime::make_testbed_config), each under its own span, and must
// reproduce the timed run's JSONL — metrics and counters — byte for byte.
#include <memory>
#include <string_view>

#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "obs/counters.h"
#include "report.h"
#include "runtime/params.h"
#include "runtime/registry.h"
#include "runtime/sink.h"
#include "runtime/sweep.h"
#include "trial_clock.h"

namespace meecc::perfbench {
namespace {

// At least 15 rounds of 7 trials, so the medians over rounds always rest
// on >= 105 trials.
constexpr int kMinRounds = 15;
constexpr int kSetupReps = 101;
constexpr double kMaxErrorRate = 0.05;  // for windows >= 15000 cycles

/// Round `round`'s trials: the seven default windows at one fresh seed.
std::vector<runtime::TrialSpec> expand(const Options& options, int round) {
  const runtime::Experiment& experiment =
      runtime::get_experiment("fig7_window_sweep");
  runtime::SweepSpec spec;
  spec.seeds = 1;
  spec.base_seed = round_seed(options.seed, round);
  if (options.tiny) spec.sets = {{"bits", "64"}};
  return runtime::expand_sweep(experiment, spec);
}

/// The fig7 trial body split at its layer boundaries. Mirrors
/// run_fig7 in src/runtime/experiments_figures.cc, payload seed included;
/// the byte comparison with the timed run catches any drift.
runtime::TrialResult split_fig7(const runtime::TrialSpec& spec,
                                std::vector<TrialClock::Child>& children) {
  const std::size_t item = spec.trial_index;
  auto t0 = Clock::now();
  auto bed =
      std::make_unique<channel::TestBed>(runtime::make_testbed_config(spec));
  auto t1 = Clock::now();
  children.push_back({"sim.build", t0, t1, item});
  channel::ChannelConfig config;
  config.window = runtime::param_u64(spec, "window", 15000);
  const auto payload =
      channel::random_bits(runtime::param_u64(spec, "bits", 1500),
                           spec.seed * 1000003ULL + spec.trial_index);
  t0 = Clock::now();
  const channel::ChannelSetup setup =
      channel::setup_covert_channel(*bed, config);
  t1 = Clock::now();
  children.push_back({"channel.setup", t0, t1, item});
  bed->start_noise();
  const channel::ChannelResult result =
      channel::transfer_covert_channel(*bed, config, payload, setup);
  const auto t2 = Clock::now();
  children.push_back({"channel.transfer", t1, t2, item});
  bed.reset();
  children.push_back({"sim.teardown", t2, Clock::now(), item});

  runtime::TrialResult out;
  out.metric("kbps", result.kilobytes_per_second);
  out.metric("error_rate", result.error_rate);
  out.metric("bit_errors", static_cast<double>(result.bit_errors));
  out.metric("monitor_found", result.monitor_found);
  return out;
}

bool trial_passes(const runtime::TrialRecord& record) {
  if (!record.ok) return false;
  if (record.result.find_metric("monitor_found").value_or(0.0) != 1.0)
    return false;
  const auto window = runtime::param_u64(record.spec, "window", 15000);
  return window < 15000 ||
         record.result.find_metric("error_rate").value_or(1.0) <=
             kMaxErrorRate;
}

struct Phase {
  RoundCosts costs;
  LatencyLog latency;
  std::uint64_t attempted = 0, passed = 0;
  Digest digest;  ///< JSONL of the first kDigestRounds rounds
  std::vector<runtime::TrialRecord> digest_records;
  SpanLog spans;
};

Phase run_phase(const Options& options, double seconds, int min_rounds,
                bool traced) {
  const runtime::Experiment& experiment =
      runtime::get_experiment("fig7_window_sweep");
  TrialClock clock;
  std::vector<TrialClock::Child> children;
  const runtime::Experiment wrapped = clock.wrap(
      experiment,
      traced ? TrialClock::Body([&children](const runtime::TrialSpec& spec) {
        return split_fig7(spec, children);
      })
             : experiment.run);
  runtime::RunnerConfig config;
  config.jobs = 1;
  config.on_trial = [&clock](const runtime::TrialRecord& r) { clock.done(r); };

  Phase phase;
  std::uint64_t item_base = 0;
  run_rounds(seconds, min_rounds, [&](int round) {
    const std::vector<runtime::TrialSpec> trials = expand(options, round);
    clock.reset(trials.size());
    children.clear();
    std::vector<runtime::TrialRecord> records;
    const double wall = phase.costs.measure(trials.size(), [&] {
      records = runtime::run_trials(wrapped, trials, config);
    });
    clock.add_latency(phase.latency);
    if (traced) clock.append_spans(phase.spans, children, item_base);
    item_base += trials.size();
    for (auto& record : records) {
      ++phase.attempted;
      if (trial_passes(record)) ++phase.passed;
      if (round < kDigestRounds) {
        phase.digest.add(runtime::to_json_line(record));
        phase.digest_records.push_back(std::move(record));
      }
    }
    return wall;
  });
  return phase;
}

void add_layers(Outcome& out, const Phase& untraced, const Phase& traced) {
  // Counts and host time per event / walk over the digest rounds, whose
  // trials are items [0, trials) of the traced run.
  const std::vector<runtime::TrialRecord>& records = traced.digest_records;
  const double trials = static_cast<double>(records.size());
  obs::CounterSnapshot total;
  for (const auto& record : records) obs::merge_into(total, record.counters);
  const auto value = [&total](std::string_view name) {
    return static_cast<double>(obs::snapshot_value(total, name));
  };
  double trial_ns = 0.0;
  for (const auto& span : traced.spans.spans())
    if (span.item < records.size() &&
        std::string_view(span.name) == "runtime.trial")
      trial_ns += 1e9 * seconds_between(span.start, span.end);
  const double walks = value("mee.read_walks") + value("mee.write_walks");

  const std::vector<double> handoff =
      traced.spans.durations_ms("runtime.handoff");
  out.layer("runtime.trial_body_ms_p50",
            median(traced.spans.durations_ms("runtime.trial", true)));
  out.layer("runtime.handoff_ms_p50", median(handoff));
  out.layer("runtime.handoff_ms_tail", latency_tail(handoff).value);
  out.layer("runtime.allocs_per_trial",
            median(untraced.costs.allocs_per_item));
  out.layer("runtime.sys_s", median(untraced.costs.sys_s));

  out.layer("sim.build_ms_p50", median(traced.spans.durations_ms("sim.build")));
  out.layer("sim.des_dispatched", value("des.dispatched") / trials);
  out.layer("sim.host_ns_per_event", ratio(trial_ns, value("des.dispatched")));
  out.layer("channel.setup_ms_p50",
            median(traced.spans.durations_ms("channel.setup")));
  out.layer("channel.transfer_ms_p50",
            median(traced.spans.durations_ms("channel.transfer")));

  double kbps = 0.0, error_rate = 0.0, at_15000 = 0.0;
  for (const auto& record : records) {
    if (runtime::param_u64(record.spec, "window", 0) != 15000) continue;
    kbps += record.result.find_metric("kbps").value_or(0.0);
    error_rate += record.result.find_metric("error_rate").value_or(0.0);
    at_15000 += 1.0;
  }
  out.layer("channel.kbps_w15000", ratio(kbps, at_15000));
  out.layer("channel.error_rate_w15000", ratio(error_rate, at_15000));

  out.layer("cache.llc_miss_ratio",
            ratio(value("cache.llc.misses"),
                  value("cache.llc.hits") + value("cache.llc.misses")));
  out.layer("cache.clflushes", value("cache.clflushes") / trials);
  out.layer("mee.read_walks", value("mee.read_walks") / trials);
  out.layer("mee.write_walks", value("mee.write_walks") / trials);
  out.layer("mee.versions_stop_ratio",
            ratio(value("mee.stop.versions"), walks));
  out.layer("mee.nodes_fetched_per_walk",
            ratio(value("mee.nodes_fetched"), walks));
  out.layer("mee.host_ns_per_walk", ratio(trial_ns, walks));
  // functional_crypto=false: no pad lookups and no MAC checks happen, so
  // crypto has no time of its own here.
  const double crypto_ops = value("crypto.pad.hit") + value("crypto.pad.miss") +
                            value("mee.mac.node_verifies") +
                            value("mee.mac.tag_verifies");
  if (crypto_ops != 0.0) out.fail("fig7_figure ran crypto work");
  out.layer("crypto.self_s", 0.0);
  out.layer("mem.dram_reads", value("dram.reads") / trials);
  out.layer("mem.dram_protected_reads", value("dram.protected_reads") / trials);
  out.layer("trace.overhead_ratio",
            ratio(median(untraced.costs.rates), median(traced.costs.rates)));
}

}  // namespace

Outcome run_fig7_figure(const Options& options) {
  Outcome out;
  // Set-up: registry lookup and sweep expansion, repeated; the median.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const std::vector<runtime::TrialSpec> trials = expand(options, 0);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // The traced run's two phases only feed per-layer figures, so they keep
  // to the digest rounds' minimum.
  const int min_rounds =
      options.trace || options.tiny ? kDigestRounds : kMinRounds;
  const Phase untraced = run_phase(
      options, options.trace ? options.seconds / 2 : options.seconds,
      min_rounds, false);
  out.note("digest", untraced.digest.hex());
  out.note("trials_per_round", "7");
  out.attempted = untraced.attempted;
  std::uint64_t passed = untraced.passed;
  if (!options.trace) {
    add_end_to_end(out, options, setup_s, untraced.costs, untraced.latency,
                   untraced.passed, untraced.attempted);
  } else {
    const Phase traced =
        run_phase(options, options.seconds / 2, kDigestRounds, true);
    if (traced.digest.value() != untraced.digest.value())
      out.fail("fig7_figure: the split trial does not reproduce run_fig7");
    add_layers(out, untraced, traced);
    traced.spans.write_csv(work_dir() + "/spans-fig7_figure.csv");
    out.note("items_per_s_untraced", fmt(median(untraced.costs.rates)));
    out.note("items_per_s_traced", fmt(median(traced.costs.rates)));
    out.attempted += traced.attempted;
    passed += traced.passed;
  }
  out.failed = out.attempted - passed;
  if (out.failed != 0)
    out.fail("fig7_figure: " + std::to_string(out.failed) +
             " trials failed their check");
  return out;
}

}  // namespace meecc::perfbench
