// The paper's figures and tables as registered experiments. Each run()
// builds its own TestBed from the TrialSpec, so every experiment sweeps and
// parallelizes through the shared runner instead of a hand-rolled main().
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "channel/capacity_probe.h"
#include "channel/covert_channel.h"
#include "channel/eviction_set.h"
#include "channel/latency_survey.h"
#include "channel/llc_baseline.h"
#include "channel/prime_probe.h"
#include "channel/testbed.h"
#include "channel/timing_study.h"
#include "common/chart.h"
#include "common/stats.h"
#include "common/table.h"
#include "mee/levels.h"
#include "obs/counters.h"
#include "runtime/channel_setup.h"
#include "runtime/experiments.h"
#include "runtime/params.h"
#include "runtime/registry.h"

namespace meecc::runtime {

namespace {

// Deterministic payload seed decorrelated from the bed seed (the old
// standalone benches used separate seed bases for the same reason).
std::uint64_t payload_seed(const TrialSpec& spec) {
  return spec.seed * 1000003ULL + spec.trial_index;
}

std::vector<double> head(const std::vector<double>& v, std::size_t n) {
  return {v.begin(), v.begin() + std::min(n, v.size())};
}

// --- Fig. 2: timing methods inside SGX ----------------------------------

TrialResult run_fig2(const TrialSpec& spec) {
  channel::TestBed bed(make_testbed_config(spec));
  channel::TimingStudyConfig config;
  config.samples = static_cast<int>(param_u64(spec, "samples", 400));
  const auto result = channel::run_timing_study(bed, config);

  TrialResult out;
  out.metric("rdtsc_faults_in_enclave", result.rdtsc_faults_in_enclave);
  out.metric("native_overhead_mean", result.native.overhead.mean());
  out.metric("ocall_overhead_mean", result.ocall.overhead.mean());
  out.metric("ocall_overhead_min", result.ocall.overhead.min());
  out.metric("ocall_overhead_max", result.ocall.overhead.max());
  out.metric("shared_clock_overhead_mean", result.shared_clock.overhead.mean());

  Table table({"timer", "mode", "overhead mean (cyc)", "overhead min",
               "overhead max", "paper"});
  auto add = [&](const char* name, const char* mode,
                 const channel::TimerSeries& s, const char* paper) {
    table.add(name, mode, static_cast<long long>(s.overhead.mean()),
              static_cast<long long>(s.overhead.min()),
              static_cast<long long>(s.overhead.max()), paper);
  };
  add("rdtsc (native)", "non-enclave", result.native, "~0 (baseline)");
  add("OCALL rdtsc", "enclave", result.ocall, "8000-15000");
  add("hyperthread shared clock", "enclave", result.shared_clock, "~50");
  std::ostringstream artifact;
  artifact << "rdtsc in enclave mode: "
           << (result.rdtsc_faults_in_enclave ? "FAULTS" : "allowed")
           << " (paper: SGX v1 faults it)\n\n"
           << table.to_text()
           << "\nconclusion: only the shared clock (c) resolves the "
              "~300-cycle\nversions hit/miss gap from enclave mode, as the "
              "paper argues.\n";
  out.artifact_text = artifact.str();
  return out;
}

// --- Fig. 4: eviction probability vs candidate-set size -----------------

TrialResult run_fig4(const TrialSpec& spec) {
  channel::TestBed bed(make_testbed_config(spec));
  channel::CapacityProbeConfig config;
  config.trials = static_cast<int>(param_u64(spec, "trials", 100));
  const auto result = channel::run_capacity_probe(bed, config);

  TrialResult out;
  out.metric("knee", static_cast<double>(result.knee));
  out.metric("capacity_kb",
             static_cast<double>(result.estimated_capacity_bytes) / 1024.0);
  out.metric("p_evict_at_max", result.points.back().probability);

  std::vector<double> sizes, probabilities;
  Table table({"candidate addresses", "evictions", "probability"});
  std::vector<std::string> labels;
  for (const auto& point : result.points) {
    sizes.push_back(static_cast<double>(point.candidates));
    probabilities.push_back(point.probability);
    labels.push_back(std::to_string(point.candidates));
    table.add(point.candidates, point.evictions, point.probability);
  }
  out.add_series("candidates", std::move(sizes));
  out.add_series("probability", probabilities);

  std::ostringstream artifact;
  artifact << table.to_text() << '\n'
           << render_bar_chart(labels, probabilities) << '\n'
           << "saturation knee:    " << result.knee
           << " addresses (paper: 64)\nestimated capacity: "
           << result.estimated_capacity_bytes / 1024 << " KB (paper: 64 KB)\n";
  out.artifact_text = artifact.str();
  return out;
}

// --- Fig. 5: latency distribution by stride -----------------------------

TrialResult run_fig5(const TrialSpec& spec) {
  channel::TestBed bed(make_testbed_config(spec));
  channel::LatencySurveyConfig config;
  config.samples_per_stride =
      static_cast<int>(param_u64(spec, "samples_per_stride", 2500));
  // Zero the counters accumulated during enclave setup (page-add writes
  // walk the tree too) so mee.core0.stop.* describes exactly the survey's
  // own walks. The core-3 background agent keeps running, which is why the
  // cross-check below uses the per-core counters, not the aggregate.
  bed.system().hub().registry().reset();
  const auto result = channel::run_latency_survey(bed, config);

  TrialResult out;
  static constexpr const char* kLevelNames[5] = {"versions", "l0", "l1", "l2",
                                                 "root"};
  for (std::size_t level = 0; level < 5; ++level) {
    const auto& stats = result.per_level[level];
    out.metric(std::string(kLevelNames[level]) + "_mean", stats.mean());
    out.metric(std::string(kLevelNames[level]) + "_count",
               static_cast<double>(stats.count()));
  }
  const double hit = result.per_level[0].mean();
  const double root =
      result.per_level[4].count() ? result.per_level[4].mean() : 0.0;
  out.metric("versions_root_gap", root > 0 ? root - hit : 0.0);

  // Cross-check the histogram against the MEE's own stop counters: every
  // survey sample is one core-0 walk, so the per-core stop distribution
  // must total exactly strides × samples_per_stride.
  const auto counters = bed.system().hub().registry().snapshot();
  const std::uint64_t counted_walks =
      obs::snapshot_total(counters, "mee.core0.stop.");
  std::uint64_t histogram_samples = 0;
  for (const auto& series : result.series)
    for (const std::uint64_t c : series.stop_counts) histogram_samples += c;
  out.metric("counter_survey_walks", static_cast<double>(counted_walks));
  out.metric("counter_walks_match_samples",
             counted_walks == histogram_samples ? 1.0 : 0.0);

  std::ostringstream artifact;
  for (const auto& series : result.series) {
    artifact << "--- stride " << series.stride << " B (mean "
             << static_cast<long long>(series.latency.mean())
             << " cycles) ---\n"
             << render_histogram(series.histogram, 50) << '\n';
  }
  Table by_level({"MEE-cache stop level", "samples", "mean latency (cyc)",
                  "stddev", "paper peak"});
  const char* paper_peaks[5] = {"~480", "~545", "~610", "~675", "~750"};
  for (std::size_t level = 0; level < 5; ++level) {
    const auto& stats = result.per_level[level];
    if (stats.count() == 0) continue;
    by_level.add(to_string(static_cast<mee::Level>(level)), stats.count(),
                 static_cast<long long>(stats.mean()),
                 static_cast<long long>(stats.stddev()), paper_peaks[level]);
  }
  Table mix({"stride", "versions", "L0", "L1", "L2", "root"});
  for (const auto& series : result.series)
    mix.add(series.stride, series.stop_counts[0], series.stop_counts[1],
            series.stop_counts[2], series.stop_counts[3],
            series.stop_counts[4]);
  Table stops({"mee.core0.stop counter", "walks"});
  for (const auto& sample : counters) {
    if (sample.name.view().starts_with("mee.core0.stop."))
      stops.add(sample.name.str(), sample.value);
  }
  artifact << by_level.to_text() << '\n'
           << "stop-level mix per stride (paper: 64B/512B -> versions/L0;\n"
              "4KB/32KB -> L1/L2; 256KB -> root):\n"
           << mix.to_text() << '\n'
           << "MEE stop counters (survey core):\n"
           << stops.to_text() << "counter total " << counted_walks << " vs "
           << histogram_samples << " histogram samples -> "
           << (counted_walks == histogram_samples ? "MATCH" : "MISMATCH")
           << '\n';
  if (root > 0)
    artifact << "versions-hit vs root gap: "
             << static_cast<long long>(root - hit)
             << " cycles (paper: >= ~300)\n";
  out.artifact_text = artifact.str();
  return out;
}

// --- Fig. 6: per-bit probe traces, Prime+Probe vs this work -------------

TrialResult run_fig6(const TrialSpec& spec) {
  const auto payload = channel::alternating_bits(param_u64(spec, "bits", 160));

  channel::TestBedConfig pp_config = make_testbed_config(spec);
  channel::TestBed pp_bed(pp_config);
  const auto pp = channel::run_prime_probe_baseline(
      pp_bed, channel::PrimeProbeConfig{}, payload);

  channel::TestBedConfig mee_config = make_testbed_config(spec);
  mee_config.system.seed = spec.seed + 1;  // independent machine
  channel::TestBed mee_bed(mee_config);
  const auto mee =
      channel::run_covert_channel(mee_bed, channel::ChannelConfig{}, payload);

  RunningStats pp_stats;
  for (const double t : pp.probe_times) pp_stats.add(t);
  double zero_sum = 0, one_sum = 0;
  std::size_t zeros = 0, ones = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == 0) {
      zero_sum += mee.probe_times[i];
      ++zeros;
    } else {
      one_sum += mee.probe_times[i];
      ++ones;
    }
  }

  TrialResult out;
  out.metric("pp_error_rate", pp.error_rate);
  out.metric("pp_probe_mean", pp_stats.mean());
  out.metric("mee_error_rate", mee.error_rate);
  out.metric("mee_zero_probe_mean", zeros ? zero_sum / zeros : 0.0);
  out.metric("mee_one_probe_mean", ones ? one_sum / ones : 0.0);
  out.add_series("pp_trace", head(pp.probe_times, 32));
  out.add_series("mee_trace", head(mee.probe_times, 32));

  std::ostringstream artifact;
  artifact << "(a) Prime+Probe on the MEE cache, trojan sends 0101...\n"
           << render_series(head(pp.probe_times, 32), 12, 64)
           << "probe time: mean " << static_cast<long long>(pp_stats.mean())
           << " cycles (paper: ~3500-4200); bit errors " << pp.bit_errors
           << " / " << pp.sent.size() << " — fails, as in the paper\n\n"
           << "(b) this work (trojan holds the eviction set, spy probes one "
              "way)\n"
           << render_series(head(mee.probe_times, 32), 12, 64)
           << "'0' probes: mean "
           << static_cast<long long>(zeros ? zero_sum / zeros : 0)
           << " cycles (paper: ~480+timer); '1' probes: mean "
           << static_cast<long long>(ones ? one_sum / ones : 0)
           << " cycles (paper: ~750+timer)\nbit errors: " << mee.bit_errors
           << " / " << mee.sent.size() << '\n';
  out.artifact_text = artifact.str();
  return out;
}

// --- Fig. 7: bit rate / error rate vs timing window ---------------------

/// Algorithm 1 + monitor discovery never read the timing window or the
/// payload, so every trial of a seed shares one channel setup.
constexpr std::string_view kFig7SetupFamily = "channel-setup";
/// Fig. 7 sweeps thousands of seeds and must not lose the rare one whose
/// first monitor discovery fails (ChannelConfig::setup_retries).
constexpr int kFig7SetupRetries = 1;

TrialResult run_fig7(const TrialSpec& spec) {
  channel::ChannelConfig config;
  config.window = param_u64(spec, "window", 15000);
  const auto payload =
      channel::random_bits(param_u64(spec, "bits", 1500), payload_seed(spec));
  ChannelTrial trial(make_testbed_config(spec),
                     warm_key_for(kFig7SetupFamily, spec, spec.seed),
                     kFig7SetupRetries);
  const channel::ChannelSetup& setup = trial.setup();
  // Deferred noise arrives once the channel is live (Fig. 8 scenario).
  trial.bed().start_noise();
  const auto result =
      channel::transfer_covert_channel(trial.bed(), config, payload, setup);

  TrialResult out;
  out.metric("kbps", result.kilobytes_per_second);
  out.metric("error_rate", result.error_rate);
  out.metric("bit_errors", static_cast<double>(result.bit_errors));
  out.metric("monitor_found", result.monitor_found);
  return out;
}

// --- Fig. 8: robustness under co-tenant noise ---------------------------

TrialResult run_fig8(const TrialSpec& spec) {
  channel::TestBed bed(make_testbed_config(spec));
  const auto payload = channel::pattern_100100(param_u64(spec, "bits", 128));
  const auto result =
      channel::run_covert_channel(bed, channel::ChannelConfig{}, payload);

  TrialResult out;
  out.metric("bit_errors", static_cast<double>(result.bit_errors));
  out.metric("error_rate", result.error_rate);
  out.add_series("probe_times", result.probe_times);

  std::ostringstream artifact;
  artifact << to_string(bed.config().noise)
           << " — probe trace (errors show as misplaced levels):\n"
           << render_series(result.probe_times, 10, 96) << '\n';
  out.artifact_text = artifact.str();
  return out;
}

// --- Table: reverse-engineered MEE cache organization -------------------

TrialResult run_reverse_engineering(const TrialSpec& spec) {
  channel::TestBed bed(make_testbed_config(spec));

  channel::CapacityProbeConfig cap_config;
  cap_config.trials = static_cast<int>(param_u64(spec, "trials", 100));
  const auto capacity = channel::run_capacity_probe(bed, cap_config);

  const auto eviction =
      channel::find_eviction_set(bed, channel::EvictionSetConfig{});

  const std::uint64_t capacity_bytes = capacity.estimated_capacity_bytes;
  const std::uint32_t ways = eviction.associativity();
  const std::uint64_t sets = ways ? capacity_bytes / (ways * 64) : 0;

  TrialResult out;
  out.metric("capacity_kb", static_cast<double>(capacity_bytes) / 1024.0);
  out.metric("ways", ways);
  out.metric("sets", static_cast<double>(sets));
  out.metric("found_test_address", eviction.found_test_address);

  Table table({"property", "recovered", "paper", "method"});
  table.add("line size", "64 B", "64 B", "known from [5]");
  table.add("capacity", std::to_string(capacity_bytes / 1024) + " KB", "64 KB",
            "Fig. 4 eviction-probability knee");
  table.add("associativity", ways, "8", "Algorithm 1 eviction set size");
  table.add("sets", sets, "128", "capacity / (ways x 64 B)");
  std::ostringstream artifact;
  artifact << table.to_text() << "\nAlgorithm 1 internals: index set "
           << eviction.index_set.size() << " addresses, test address "
           << (eviction.found_test_address ? "found" : "NOT FOUND")
           << ", eviction set " << eviction.eviction_set.size()
           << " addresses\n";
  out.artifact_text = artifact.str();
  return out;
}

// --- Context baseline: LLC Prime+Probe vs the MEE channel ---------------

TrialResult run_llc_baseline(const TrialSpec& spec) {
  const auto payload =
      channel::random_bits(param_u64(spec, "bits", 512), payload_seed(spec));

  channel::TestBed llc_bed(make_testbed_config(spec));
  const auto llc = channel::run_llc_baseline(
      llc_bed, channel::LlcChannelConfig{}, payload);

  channel::TestBedConfig mee_config = make_testbed_config(spec);
  mee_config.system.seed = spec.seed + 1;
  channel::TestBed mee_bed(mee_config);
  const auto mee =
      channel::run_covert_channel(mee_bed, channel::ChannelConfig{}, payload);

  TrialResult out;
  out.metric("llc_kbps", llc.kilobytes_per_second);
  out.metric("llc_error_rate", llc.error_rate);
  out.metric("mee_kbps", mee.kilobytes_per_second);
  out.metric("mee_error_rate", mee.error_rate);

  Table table({"channel", "bit rate (KBps)", "error rate", "needs hugepages",
               "works in SGX", "defeated by non-inclusive LLC"});
  char llc_rate[32], llc_err[32], mee_rate[32], mee_err[32];
  std::snprintf(llc_rate, sizeof llc_rate, "%.1f", llc.kilobytes_per_second);
  std::snprintf(llc_err, sizeof llc_err, "%.3f", llc.error_rate);
  std::snprintf(mee_rate, sizeof mee_rate, "%.1f", mee.kilobytes_per_second);
  std::snprintf(mee_err, sizeof mee_err, "%.3f", mee.error_rate);
  table.add("LLC Prime+Probe [7,9]", llc_rate, llc_err, "yes", "no", "yes");
  table.add("MEE cache (this paper)", mee_rate, mee_err, "no", "yes", "no");
  std::ostringstream artifact;
  artifact << table.to_text()
           << "\nshape check: the LLC channel is faster but the MEE channel\n"
              "works where LLC attacks are blocked — the paper's "
              "motivation.\n";
  out.artifact_text = artifact.str();
  return out;
}

}  // namespace

void register_figure_experiments() {
  register_experiment(
      {.name = "fig2_timing_methods",
       .description = "timer overhead inside SGX: rdtsc, OCALL, shared clock",
       .paper_ref = "Fig. 2 (a)-(c), §3 challenge 4",
       .default_params = {{"functional_crypto", "false"}, {"samples", "400"}},
       .default_sweeps = {},
       .run = run_fig2});
  register_experiment(
      {.name = "fig4_eviction_probability",
       .description = "eviction probability vs candidate-set size (capacity)",
       .paper_ref = "Fig. 4, §4.1",
       .default_params = {{"functional_crypto", "false"}, {"trials", "100"}},
       .default_sweeps = {},
       .run = run_fig4});
  register_experiment(
      {.name = "fig5_latency_histogram",
       .description = "protected-access latency distribution by stride",
       .paper_ref = "Fig. 5, §5.1",
       .default_params = {{"functional_crypto", "false"},
                          {"epc_size", "64M"},
                          {"trojan_bytes", "32M"},
                          {"samples_per_stride", "2500"}},
       .default_sweeps = {},
       .run = run_fig5});
  register_experiment(
      {.name = "fig6_channel_traces",
       .description = "per-bit probe traces: Prime+Probe fails, this work "
                      "decodes",
       .paper_ref = "Fig. 6 (a)/(b), §5.2-5.3",
       .default_params = {{"functional_crypto", "false"}, {"bits", "160"}},
       .default_sweeps = {},
       .run = run_fig6});
  register_experiment(
      {.name = "fig7_window_sweep",
       .description = "bit rate vs error rate as the timing window varies",
       .paper_ref = "Fig. 7, §5.4",
       .default_params = {{"functional_crypto", "false"},
                          {"bits", "1500"},
                          {"window", "15000"}},
       .default_sweeps = {{"window",
                           "5000,7500,10000,15000,20000,25000,30000"}},
       .run = run_fig7,
       .setup_key = [](const TrialSpec& spec) {
         return warm_key_for(kFig7SetupFamily, spec, spec.seed);
       }});
  register_experiment(
      {.name = "fig8_noise",
       .description = "channel robustness under co-tenant noise environments",
       .paper_ref = "Fig. 8 (a)-(d), §5.4",
       .default_params = {{"functional_crypto", "false"},
                          {"noise_autostart", "false"},
                          {"bits", "128"}},
       .default_sweeps = {{"noise", "none,stress,mee512,mee4k"}},
       .run = run_fig8});
  register_experiment(
      {.name = "table_reverse_engineering",
       .description = "recovered MEE cache organization (capacity/ways/sets)",
       .paper_ref = "§4 headline table",
       .default_params = {{"functional_crypto", "false"}, {"trials", "100"}},
       .default_sweeps = {},
       .run = run_reverse_engineering});
  register_experiment(
      {.name = "llc_baseline",
       .description = "classic LLC Prime+Probe channel vs the MEE channel",
       .paper_ref = "§1-2 context, refs [7][9]",
       .default_params = {{"functional_crypto", "false"}, {"bits", "512"}},
       .default_sweeps = {},
       .run = run_llc_baseline});
}

}  // namespace meecc::runtime
