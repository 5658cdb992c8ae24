// Tests for the experiment runtime: registry lookup, declarative sweep
// expansion, the string-keyed config override table, JSONL emission, and
// runner determinism across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "obs/scope.h"
#include "runtime/experiments.h"
#include "runtime/params.h"
#include "runtime/registry.h"
#include "runtime/runner.h"
#include "runtime/setup_cache.h"
#include "runtime/setup_store.h"
#include "runtime/sink.h"
#include "runtime/sweep.h"

namespace meecc::runtime {
namespace {

// A cheap deterministic experiment for runner/sink tests: metrics are pure
// functions of (seed, params).
Experiment synthetic(const std::string& name) {
  Experiment e;
  e.name = name;
  e.description = "test";
  e.default_params = {{"a", "1"}, {"b", "10"}};
  e.run = [](const TrialSpec& spec) {
    TrialResult out;
    const double a = param_double(spec, "a", 0);
    const double b = param_double(spec, "b", 0);
    out.metric("value", static_cast<double>(spec.seed) * 1000 + a * 100 + b);
    out.metric("third", a / 3.0);  // exercises non-terminating decimals
    return out;
  };
  return e;
}

TEST(Registry, LookupAndUnknownName) {
  register_builtin_experiments();
  const Experiment* fig7 = find_experiment("fig7_window_sweep");
  ASSERT_NE(fig7, nullptr);
  EXPECT_EQ(fig7->name, "fig7_window_sweep");
  EXPECT_GE(all_experiments().size(), 6u);  // driver's `list` contract

  EXPECT_EQ(find_experiment("no_such_experiment"), nullptr);
  try {
    get_experiment("no_such_experiment");
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    // The error names the registered experiments so CLI typos are fixable.
    EXPECT_NE(std::string(e.what()).find("fig7_window_sweep"),
              std::string::npos);
  }
}

TEST(Registry, RejectsDuplicatesAndInvalid) {
  register_builtin_experiments();
  EXPECT_THROW(register_experiment(synthetic("fig7_window_sweep")),
               std::invalid_argument);
  Experiment unnamed = synthetic("");
  EXPECT_THROW(register_experiment(std::move(unnamed)),
               std::invalid_argument);
  Experiment no_run = synthetic("runtime_test_no_run");
  no_run.run = nullptr;
  EXPECT_THROW(register_experiment(std::move(no_run)),
               std::invalid_argument);
}

TEST(Params, ParsersAndOverrideTable) {
  EXPECT_EQ(parse_size("k", "512"), 512u);
  EXPECT_EQ(parse_size("k", "64K"), 64u * 1024);
  EXPECT_EQ(parse_size("k", "32m"), 32ull << 20);
  EXPECT_EQ(parse_size("k", "2G"), 2ull << 30);
  EXPECT_THROW(parse_size("k", "64Q"), ParamError);
  EXPECT_THROW(parse_u64("k", "12x"), ParamError);
  EXPECT_THROW(parse_u64("k", ""), ParamError);
  EXPECT_TRUE(parse_bool("k", "true"));
  EXPECT_FALSE(parse_bool("k", "off"));
  EXPECT_THROW(parse_bool("k", "maybe"), ParamError);

  channel::TestBedConfig config = channel::default_testbed_config(1);
  EXPECT_TRUE(apply_override(config, "noise", "mee4k"));
  EXPECT_EQ(config.noise, channel::NoiseEnv::kMeeStride4K);
  EXPECT_TRUE(apply_override(config, "epc_placement", "randomized"));
  EXPECT_EQ(config.system.epc_placement, mem::EpcPlacement::kRandomized);
  EXPECT_TRUE(apply_override(config, "epc_size", "64M"));
  EXPECT_EQ(config.system.address_map.epc_size, 64ull << 20);
  EXPECT_TRUE(apply_override(config, "mee.ways", "4"));
  EXPECT_EQ(config.system.mee.cache_geometry.ways, 4u);
  EXPECT_FALSE(apply_override(config, "not_a_key", "1"));
  EXPECT_THROW(apply_override(config, "noise", "hurricane"), ParamError);

  EXPECT_TRUE(is_config_key("functional_crypto"));
  EXPECT_FALSE(is_config_key("bits"));
}

TEST(Params, NoiseEnvTokensRoundTrip) {
  using channel::NoiseEnv;
  for (const NoiseEnv env :
       {NoiseEnv::kNone, NoiseEnv::kMemoryStress, NoiseEnv::kMeeStride512,
        NoiseEnv::kMeeStride4K}) {
    const auto parsed = channel::noise_env_from_string(to_token(env));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, env);
  }
  EXPECT_FALSE(channel::noise_env_from_string("hurricane").has_value());
}

TEST(Sweep, ParseArgs) {
  SweepSpec spec;
  const auto leftover = parse_sweep_args(
      {"--set", "a=2", "--sweep", "b=10,20,30", "--seeds", "3", "--seed",
       "100", "--jobs", "4"},
      &spec);
  EXPECT_EQ(leftover, (std::vector<std::string>{"--jobs", "4"}));
  ASSERT_EQ(spec.sets.size(), 1u);
  EXPECT_EQ(spec.sets[0], (std::pair<std::string, std::string>{"a", "2"}));
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].second,
            (std::vector<std::string>{"10", "20", "30"}));
  EXPECT_EQ(spec.seeds, 3);
  EXPECT_EQ(spec.base_seed, 100u);
}

TEST(Sweep, BadArgsThrow) {
  SweepSpec spec;
  EXPECT_THROW(parse_sweep_args({"--set", "novalue"}, &spec), ParamError);
  EXPECT_THROW(parse_sweep_args({"--set", "=v"}, &spec), ParamError);
  EXPECT_THROW(parse_sweep_args({"--set"}, &spec), ParamError);
  EXPECT_THROW(parse_sweep_args({"--seeds", "0"}, &spec), ParamError);
  EXPECT_THROW(parse_sweep_args({"--seeds", "three"}, &spec), ParamError);
}

TEST(Sweep, CrossProductExpansion) {
  const Experiment e = synthetic("runtime_test_expand");
  SweepSpec spec;
  spec.axes = {{"a", {"1", "2", "3"}}, {"b", {"10", "20"}}};
  spec.seeds = 2;
  spec.base_seed = 7;
  const auto trials = expand_sweep(e, spec);
  ASSERT_EQ(trials.size(), 3u * 2u * 2u);
  // First axis slowest, seeds innermost; trial_index and seeds are
  // deterministic.
  EXPECT_EQ(*find_param(trials[0].params, "a"), "1");
  EXPECT_EQ(*find_param(trials[0].params, "b"), "10");
  EXPECT_EQ(trials[0].seed, 7u);
  EXPECT_EQ(trials[1].seed, 8u);
  EXPECT_EQ(*find_param(trials[2].params, "b"), "20");
  EXPECT_EQ(*find_param(trials[4].params, "a"), "2");
  EXPECT_EQ(*find_param(trials[4].params, "b"), "10");
  EXPECT_EQ(*find_param(trials[11].params, "a"), "3");
  EXPECT_EQ(*find_param(trials[11].params, "b"), "20");
  for (std::size_t i = 0; i < trials.size(); ++i)
    EXPECT_EQ(trials[i].trial_index, i);

  EXPECT_EQ(swept_keys(e, spec), (std::vector<std::string>{"a", "b"}));
}

TEST(Sweep, DefaultSweepsAndSetOverride) {
  register_builtin_experiments();
  const Experiment& fig7 = get_experiment("fig7_window_sweep");
  // Default reproduces the figure: 7 windows.
  EXPECT_EQ(expand_sweep(fig7, SweepSpec{}).size(), 7u);
  // Pinning the swept key collapses the default axis.
  SweepSpec pinned;
  pinned.sets = {{"window", "15000"}};
  const auto trials = expand_sweep(fig7, pinned);
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(*find_param(trials[0].params, "window"), "15000");
  // Replacing the axis via --sweep wins over the default axis.
  SweepSpec swept;
  swept.axes = {{"window", {"10000", "20000"}}};
  EXPECT_EQ(expand_sweep(fig7, swept).size(), 2u);
}

TEST(Sweep, RejectsUnknownKeysAndBadValues) {
  const Experiment e = synthetic("runtime_test_validate");
  SweepSpec unknown;
  unknown.sets = {{"definitely_not_a_param", "1"}};
  EXPECT_THROW(expand_sweep(e, unknown), ParamError);

  SweepSpec bad_value;
  bad_value.sets = {{"cores", "lots"}};  // config key, junk value
  EXPECT_THROW(expand_sweep(e, bad_value), ParamError);
  // The LLC's core-valid bits cover 1-8 cores.
  for (const char* cores : {"0", "9"}) {
    SweepSpec bad_cores;
    bad_cores.sets = {{"cores", cores}};
    EXPECT_THROW(expand_sweep(e, bad_cores), ParamError) << cores;
  }
  SweepSpec eight_cores;
  eight_cores.sets = {{"cores", "8"}};
  EXPECT_NO_THROW(expand_sweep(e, eight_cores));

  SweepSpec conflict;
  conflict.sets = {{"a", "1"}};
  conflict.axes = {{"a", {"1", "2"}}};
  EXPECT_THROW(expand_sweep(e, conflict), ParamError);

  SweepSpec empty_axis;
  empty_axis.axes = {{"a", {}}};
  EXPECT_THROW(expand_sweep(e, empty_axis), ParamError);
}

TEST(Sink, JsonLineShape) {
  TrialRecord record;
  record.spec.experiment = "quote\"test";
  record.spec.trial_index = 3;
  record.spec.seed = 45;
  record.spec.params = {{"window", "15000"}};
  record.ok = true;
  record.result.metric("error_rate", 0.25);
  record.result.add_series("trace", {1.0, 2.5});
  EXPECT_EQ(to_json_line(record),
            "{\"experiment\":\"quote\\\"test\",\"trial\":3,\"seed\":45,"
            "\"params\":{\"window\":\"15000\"},\"ok\":true,"
            "\"metrics\":{\"error_rate\":0.25},"
            "\"series\":{\"trace\":[1,2.5]}}");

  TrialRecord failed;
  failed.spec.experiment = "x";
  failed.error = "boom\n";
  EXPECT_EQ(to_json_line(failed),
            "{\"experiment\":\"x\",\"trial\":0,\"seed\":0,\"params\":{},"
            "\"ok\":false,\"error\":\"boom\\n\"}");
}

// A sweep in which some trials failed still renders: a failed row carries
// its message in the first metric cell and is padded to the header, and a
// sweep with no successful trial gets a column for the messages.
TEST(Sink, SummaryTablePadsFailedRows) {
  TrialRecord ok;
  ok.spec.trial_index = 0;
  ok.spec.params = {{"window", "5000"}};
  ok.ok = true;
  ok.result.metric("kbps", 35.0);
  ok.result.metric("error_rate", 0.01);
  TrialRecord failed;
  failed.spec.trial_index = 1;
  failed.spec.params = {{"window", "7500"}};
  failed.error = "spy found no monitor address";

  const std::string mixed =
      summary_table({ok, failed, ok}, {"window"}).to_text();
  EXPECT_NE(mixed.find("FAILED: spy found no monitor address"),
            std::string::npos);
  EXPECT_NE(mixed.find("kbps"), std::string::npos);
  const std::string all_failed =
      summary_table({failed, failed}, {"window"}).to_text();
  EXPECT_NE(all_failed.find("FAILED: spy found no monitor address"),
            std::string::npos);
}

TEST(Runner, SyntheticDeterminismAcrossJobCounts) {
  const Experiment e = synthetic("runtime_test_runner");
  SweepSpec spec;
  spec.axes = {{"a", {"1", "2", "3", "4"}}, {"b", {"10", "20", "30"}}};
  spec.seeds = 3;
  const auto trials = expand_sweep(e, spec);
  ASSERT_EQ(trials.size(), 36u);

  RunnerConfig serial;
  serial.jobs = 1;
  RunnerConfig parallel;
  parallel.jobs = 4;
  const auto a = run_trials(e, trials, serial);
  const auto b = run_trials(e, trials, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(to_json_line(a[i]), to_json_line(b[i])) << "trial " << i;
}

TEST(Runner, TrialFailureIsRecordedNotFatal) {
  Experiment e;
  e.name = "runtime_test_failing";
  e.run = [](const TrialSpec& spec) -> TrialResult {
    if (spec.seed % 2 == 0) throw std::runtime_error("even seeds fail");
    TrialResult out;
    out.metric("ok", 1);
    return out;
  };
  std::vector<TrialSpec> trials(4);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    trials[i].trial_index = i;
    trials[i].seed = i;
  }
  std::atomic<int> callbacks{0};
  RunnerConfig config{.jobs = 2, .on_trial = [&](const TrialRecord&) {
                        ++callbacks;
                      }};
  const auto records = run_trials(e, trials, config);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(callbacks.load(), 4);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].ok, i % 2 == 1);
    if (!records[i].ok) {
      EXPECT_EQ(records[i].error, "even seeds fail");
    }
  }
}

// The acceptance-criteria shape on a real experiment: a registered
// simulator experiment produces bit-identical results at --jobs 1 and
// --jobs 4 with the same seeds. Trimmed payload keeps it test-sized.
TEST(Runner, Fig7DeterminismAcrossJobCounts) {
  register_builtin_experiments();
  const Experiment& fig7 = get_experiment("fig7_window_sweep");
  SweepSpec spec;
  spec.sets = {{"bits", "48"}};
  spec.axes = {{"window", {"10000", "15000"}}};
  spec.seeds = 2;
  const auto trials = expand_sweep(fig7, spec);
  ASSERT_EQ(trials.size(), 4u);

  RunnerConfig one_job;
  one_job.jobs = 1;
  RunnerConfig four_jobs;
  four_jobs.jobs = 4;
  const auto serial = run_trials(fig7, trials, one_job);
  const auto parallel = run_trials(fig7, trials, four_jobs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(to_json_line(serial[i]), to_json_line(parallel[i]))
        << "trial " << i;
  }
}

/// run_fig7 composed by hand on a fresh machine — TestBed, Algorithm 1 +
/// monitor discovery, deferred noise, transfer — under the runner's own
/// ambient scope, so counters and failure text land exactly where the
/// runner would put them. Never snapshots, never shares.
TrialRecord fresh_fig7(const TrialSpec& spec) {
  TrialRecord record;
  record.spec = spec;
  obs::TrialScope scope;
  try {
    channel::TestBed bed(make_testbed_config(spec));
    channel::ChannelConfig config;
    config.window = param_u64(spec, "window", 15000);
    config.setup_retries = 1;  // fig7 retries a failed discovery once
    const auto payload = channel::random_bits(
        param_u64(spec, "bits", 1500), spec.seed * 1000003ULL + spec.trial_index);
    const channel::ChannelSetup setup =
        channel::setup_covert_channel(bed, config);
    bed.start_noise();
    const channel::ChannelResult result =
        channel::transfer_covert_channel(bed, config, payload, setup);
    record.result.metric("kbps", result.kilobytes_per_second);
    record.result.metric("error_rate", result.error_rate);
    record.result.metric("bit_errors", static_cast<double>(result.bit_errors));
    record.result.metric("monitor_found", result.monitor_found);
    record.ok = true;
  } catch (const std::exception& e) {
    record.error = e.what();
  }
  record.counters = scope.counters();
  return record;
}

struct RunMode {
  unsigned jobs;
  bool recycle;
};

/// fig7 through the runner — one Algorithm 1 per seed, forked or recycled
/// beds — equals the hand-composed fresh path line for line, counters
/// included, in each of `modes`. The fresh path and the modes share no
/// state, so they run side by side.
void expect_fig7_matches_fresh_path(const SweepSpec& spec,
                                    std::size_t failures_expected,
                                    const std::vector<RunMode>& modes) {
  register_builtin_experiments();
  const Experiment& fig7 = get_experiment("fig7_window_sweep");
  const auto trials = expand_sweep(fig7, spec);
  auto fresh = std::async(std::launch::async, [&] {
    std::vector<TrialRecord> records;
    for (const TrialSpec& trial : trials) records.push_back(fresh_fig7(trial));
    return records;
  });
  std::vector<std::future<std::pair<std::vector<TrialRecord>, SetupStats>>>
      runs;
  for (const RunMode& mode : modes)
    runs.push_back(std::async(std::launch::async, [&, mode] {
      RunnerConfig config;
      config.jobs = mode.jobs;
      config.recycle_systems = mode.recycle;
      SetupStats stats;
      auto records = run_trials(fig7, trials, config, &stats);
      return std::pair(std::move(records), stats);
    }));

  std::vector<std::string> want;
  std::size_t failures = 0;
  for (const TrialRecord& record : fresh.get()) {
    if (!record.ok) ++failures;
    want.push_back(to_json_line(record));
  }
  EXPECT_EQ(failures, failures_expected);
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const auto [records, stats] = runs[m].get();
    EXPECT_EQ(stats.builds, static_cast<std::uint64_t>(spec.seeds));
    ASSERT_EQ(records.size(), want.size());
    for (std::size_t i = 0; i < records.size(); ++i)
      EXPECT_EQ(to_json_line(records[i]), want[i])
          << "trial " << i << " jobs " << modes[m].jobs << " recycle "
          << modes[m].recycle;
  }
}

TEST(Runner, Fig7SharedSetupMatchesTheFreshPath) {
  SweepSpec spec;
  spec.sets = {{"bits", "16"}};
  spec.axes = {{"window", {"5000", "15000"}}};
  spec.base_seed = 221;
  spec.seeds = 8;  // 221..228; seed 228 needs the monitor-discovery retry
  expect_fig7_matches_fresh_path(
      spec, 0, {{1, true}, {1, false}, {4, true}, {4, false}});
}

// Only callers that ask for a retry get one: seed 228's first discovery
// fails, so the default single-attempt setup (every caller but fig7) still
// reports it, and one retry recovers the channel.
TEST(Runner, SetupRetriesAreOptIn) {
  register_builtin_experiments();
  SweepSpec spec;
  spec.sets = {{"bits", "16"}};
  spec.base_seed = 228;
  spec.seeds = 1;
  const TrialSpec trial =
      expand_sweep(get_experiment("fig7_window_sweep"), spec).front();
  channel::TestBed once(make_testbed_config(trial));
  try {
    channel::setup_covert_channel(once, channel::ChannelConfig{});
    ADD_FAILURE() << "seed 228's first discovery is expected to fail";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("spy found no monitor address"),
              std::string::npos)
        << e.what();
  }
  channel::TestBed retried(make_testbed_config(trial));
  channel::ChannelConfig config;
  config.setup_retries = 1;
  EXPECT_TRUE(channel::setup_covert_channel(retried, config).monitor_found);
}

// A setup that fails — Algorithm 1 under autostarted stride-walker noise
// on seed 3 — must leave the same failure record on every path.
TEST(Runner, Fig7SharedSetupFailureMatchesTheFreshPath) {
  SweepSpec spec;
  spec.sets = {{"bits", "16"}, {"noise", "mee512"}};
  spec.axes = {{"window", {"15000"}}};
  spec.base_seed = 3;
  spec.seeds = 1;
  expect_fig7_matches_fresh_path(spec, 1, {{1, true}, {4, false}});
}

// Stride-walker noise running through Algorithm 1 and captured live.
TEST(Runner, Fig7SharedSetupMatchesTheFreshPathUnderMeeNoise) {
  SweepSpec spec;
  spec.sets = {{"bits", "16"}, {"noise", "mee512"}};
  spec.axes = {{"window", {"5000", "15000"}}};
  spec.base_seed = 11;  // a seed whose setup succeeds under this noise
  spec.seeds = 1;
  expect_fig7_matches_fresh_path(spec, 0, {{1, true}, {4, false}});
}

// SetupStats must say how each warm state was resolved — built, found in
// this process's memory tier, or loaded from the on-disk store — because
// the campaign CI leg asserts on exactly these counters.
TEST(Runner, SetupStatsDistinguishMemoryDiskAndBuild) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "meecc_runtime_stats";
  std::filesystem::remove_all(dir);

  std::atomic<int> built{0};
  Experiment e;
  e.name = "runtime_test_stats";
  e.setup_key = [](const TrialSpec& spec) {
    return "stats|seed=" + std::to_string(spec.seed);
  };
  e.run = [&built](const TrialSpec& spec) {
    const auto warm = memoized_setup<std::uint64_t>(
        "stats|seed=" + std::to_string(spec.seed),
        [&]() -> std::shared_ptr<const std::uint64_t> {
          ++built;
          Rng rng(spec.seed);
          return std::make_shared<const std::uint64_t>(rng.next_u64());
        },
        [](const std::uint64_t& value) {
          io::Writer w;
          w.u64(value);
          return w.take();
        },
        [](std::string_view payload) -> std::shared_ptr<const std::uint64_t> {
          io::Reader r(payload);
          auto value = std::make_shared<std::uint64_t>(r.u64());
          r.expect_done();
          return value;
        });
    TrialResult out;
    out.metric("warm_mod", static_cast<double>(*warm % 100003));
    return out;
  };
  std::vector<TrialSpec> trials(6);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    trials[i].trial_index = i;
    trials[i].seed = 7 + i % 2;  // two distinct warm states
  }

  // No store attached: two builds, the other four trials hit memory.
  RunnerConfig memory_only;
  memory_only.jobs = 2;
  SetupStats stats;
  const auto in_memory = run_trials(e, trials, memory_only, &stats);
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.memory_hits, 4u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(built.load(), 2);

  // Cold store: still two builds, but they are written back...
  SetupStore store(dir.string(), e.name);
  RunnerConfig with_store;
  with_store.jobs = 2;
  with_store.setup_store = &store;
  built = 0;
  const auto cold = run_trials(e, trials, with_store, &stats);
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.memory_hits, 4u);
  EXPECT_EQ(stats.disk_hits, 0u);

  // ...so the next sweep (a fresh process in campaign terms) builds
  // nothing and resolves each key from disk exactly once.
  built = 0;
  const auto warm = run_trials(e, trials, with_store, &stats);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.disk_hits, 2u);
  EXPECT_EQ(stats.memory_hits, 4u);
  EXPECT_EQ(built.load(), 0);

  // Resolution mode is an optimization, never an observable: all three
  // sweeps report identical trial records.
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(to_json_line(in_memory[i]), to_json_line(cold[i])) << i;
    EXPECT_EQ(to_json_line(in_memory[i]), to_json_line(warm[i])) << i;
  }
  std::filesystem::remove_all(dir);
}

// Captures every commit and asserts the ResultStream contract as it goes:
// batches are contiguous, in trial order, and each line is newline-terminated.
class CollectStream final : public ResultStream {
 public:
  void commit(std::size_t first, const std::string* lines,
              std::size_t count) override {
    EXPECT_EQ(first, committed_);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_FALSE(lines[i].empty());
      EXPECT_EQ(lines[i].back(), '\n');
      text_ += lines[i];
    }
    committed_ += count;
  }
  const std::string& text() const { return text_; }
  std::size_t committed() const { return committed_; }

 private:
  std::string text_;
  std::size_t committed_ = 0;
};

// The streaming path must be an encoding of the in-memory path, not a
// reimplementation: bytes out of the stream equal write_jsonl of the
// records, at any job count, and a stream only changes what the caller
// gets back — on_trial still sees every full record.
TEST(Runner, StreamingMatchesInMemoryJsonlAtAnyJobCount) {
  const Experiment e = synthetic("runtime_test_streaming");
  SweepSpec spec;
  spec.axes = {{"a", {"1", "2", "3"}}, {"b", {"10", "20"}}};
  spec.seeds = 4;
  const auto trials = expand_sweep(e, spec);
  ASSERT_EQ(trials.size(), 24u);

  RunnerConfig plain;
  plain.jobs = 1;
  std::ostringstream reference;
  write_jsonl(reference, run_trials(e, trials, plain));

  for (const unsigned jobs : {1u, 4u}) {
    CollectStream stream;
    std::atomic<std::size_t> seen{0};
    std::atomic<std::size_t> full_records{0};
    RunnerConfig config;
    config.jobs = jobs;
    config.stream = &stream;
    config.on_trial = [&](const TrialRecord& record) {
      ++seen;
      if (record.ok && !record.result.metrics.empty()) ++full_records;
    };
    const auto records = run_trials(e, trials, config);
    EXPECT_TRUE(records.empty()) << "a streaming run must drop records";
    EXPECT_EQ(seen.load(), trials.size());
    EXPECT_EQ(full_records.load(), trials.size());
    EXPECT_EQ(stream.committed(), trials.size());
    EXPECT_EQ(stream.text(), reference.str()) << "jobs=" << jobs;
  }
}

// The result ring bounds how far workers run ahead of the oldest
// unretired trial. Trial 0 stalls while 2,000 instant trials queue behind
// it: without the window the other workers would finish them all and pile
// up their results. At most kTrialWindow trials may be started but not yet
// part of the prefix on_trial has delivered, on_trial sees trials in
// order, and the bytes do not change.
TEST(Runner, TrialWindowBoundsRunAheadBehindAStalledTrial) {
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> seen{0};  // trials [0, seen) reached on_trial
  std::atomic<std::size_t> high_water{0};
  Experiment e = synthetic("runtime_test_window");
  const auto body = e.run;
  e.run = [&, body](const TrialSpec& spec) {
    const std::size_t in_flight = started.fetch_add(1) + 1 - seen.load();
    std::size_t high = high_water.load();
    while (in_flight > high &&
           !high_water.compare_exchange_weak(high, in_flight)) {
    }
    if (spec.trial_index == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return body(spec);
  };
  std::vector<TrialSpec> trials(2001);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    trials[i].experiment = e.name;
    trials[i].trial_index = i;
    trials[i].seed = i;
  }

  const auto stream_at = [&](unsigned jobs) {
    started = 0;
    seen = 0;
    high_water = 0;
    CollectStream stream;
    RunnerConfig config;
    config.jobs = jobs;
    config.stream = &stream;
    bool in_order = true;
    std::vector<char> delivered(trials.size(), 0);
    config.on_trial = [&](const TrialRecord& record) {
      const std::size_t i = record.spec.trial_index;
      if (i != seen.load()) in_order = false;
      delivered[i] = 1;
      std::size_t prefix = seen.load();
      while (prefix < delivered.size() && delivered[prefix]) ++prefix;
      seen = prefix;
    };
    run_trials(e, trials, config);
    EXPECT_TRUE(in_order) << "on_trial out of trial order at jobs=" << jobs;
    EXPECT_EQ(seen.load(), trials.size());
    EXPECT_EQ(stream.committed(), trials.size());
    return stream.text();
  };

  const std::string reference = stream_at(1);
  EXPECT_EQ(high_water.load(), 1u);
  EXPECT_EQ(stream_at(4), reference);
  EXPECT_LE(high_water.load(), kTrialWindow);
}

// Regression: a throwing on_trial callback once escaped a worker thread
// and took the process down via std::terminate. The contract is: stop the
// sweep, join the workers, rethrow from run_trials.
TEST(Runner, CallbackExceptionIsRethrownAfterJoin) {
  const Experiment e = synthetic("runtime_test_callback_throw");
  std::vector<TrialSpec> trials(32);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    trials[i].trial_index = i;
    trials[i].seed = i;
  }
  for (const unsigned jobs : {1u, 4u}) {
    std::atomic<int> calls{0};
    RunnerConfig config;
    config.jobs = jobs;
    config.on_trial = [&](const TrialRecord&) {
      if (calls.fetch_add(1) == 3) throw std::runtime_error("callback boom");
    };
    try {
      run_trials(e, trials, config);
      FAIL() << "expected rethrow at jobs=" << jobs;
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "callback boom");
    }
  }
}

// Same contract for a failing sink: a ResultStream whose commit throws
// (e.g. disk full) stops the sweep and surfaces from run_trials.
TEST(Runner, StreamExceptionIsRethrownAfterJoin) {
  class ThrowingStream final : public ResultStream {
   public:
    void commit(std::size_t, const std::string*, std::size_t) override {
      throw std::runtime_error("commit boom");
    }
  };
  const Experiment e = synthetic("runtime_test_stream_throw");
  std::vector<TrialSpec> trials(16);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    trials[i].trial_index = i;
    trials[i].seed = i;
  }
  for (const unsigned jobs : {1u, 4u}) {
    ThrowingStream stream;
    RunnerConfig config;
    config.jobs = jobs;
    config.stream = &stream;
    EXPECT_THROW(run_trials(e, trials, config), std::runtime_error)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace meecc::runtime
