// meecc_bench: the single driver for every registered experiment.
//
//   meecc_bench list
//   meecc_bench describe <experiment>
//   meecc_bench params
//   meecc_bench run <experiment> [--set k=v]... [--sweep k=a,b,c]...
//                   [--seeds N] [--seed BASE] [--jobs N] [--json PATH]
//                   [--counters] [--trace PATH] [--trace-chrome PATH]
//                   [--trace-sample N] [--artifacts] [--quiet]
//
// `run` expands the declarative sweep into the cross-product of trials,
// executes them on a worker pool (one simulator per trial — results are
// bit-identical at any --jobs value), prints the summary table, and with
// --json writes one JSON line per trial ("-" for stdout). --counters prints
// the merged observability counters of the whole sweep; --trace streams
// every simulator trace event as JSONL (--trace-chrome: Chrome trace_event
// JSON for chrome://tracing / Perfetto). Traced parallel sweeps buffer each
// trial's events and write them in trial order — byte-identical at any
// --jobs value.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <cinttypes>
#include <optional>

#include "cache/policy.h"
#include "cache/replacement.h"
#include "common/table.h"
#include "perf_suite.h"
#include "obs/trace.h"
#include "runtime/campaign.h"
#include "runtime/experiments.h"
#include "runtime/params.h"
#include "runtime/registry.h"
#include "runtime/runner.h"
#include "runtime/setup_store.h"
#include "runtime/sink.h"
#include "runtime/sweep.h"

namespace {

using namespace meecc;

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: meecc_bench <command> ...\n"
      "  list                      registered experiments\n"
      "  describe <experiment>     parameters, defaults, shared config keys\n"
      "  params                    every --set/--sweep config key + the\n"
      "                            registered cache policy names\n"
      "  run <experiment> [options]\n"
      "      --set key=value       pin a parameter (overrides default sweeps)\n"
      "      --sweep key=a,b,c     sweep a parameter axis (cross-product)\n"
      "      --seeds N             seeds per parameter combination (default 1)\n"
      "      --seed BASE           base seed (default 42; seed s = BASE+s)\n"
      "      --jobs N              worker threads (default 1; 0 = all cores)\n"
      "      --json PATH           JSONL results, one line per trial ('-' = "
      "stdout)\n"
      "      --counters            print the sweep's merged counter table\n"
      "      --trace PATH          trace events as JSONL (parallel trials are\n"
      "                            buffered and written in trial order)\n"
      "      --trace-chrome PATH   trace events as Chrome trace_event JSON\n"
      "      --trace-sample N      keep every Nth trace event (default 1)\n"
      "      --no-reuse-setup      rebuild warm setup state for every trial\n"
      "                            instead of snapshot/fork sharing\n"
      "      --no-recycle-systems  construct a fresh System per trial instead\n"
      "                            of rewinding a per-worker recycled one\n"
      "      --setup-store DIR     on-disk warm-setup cache shared across\n"
      "                            processes and shards\n"
      "      --shard i/N           run only shard i of N (contiguous trial\n"
      "                            range); writes shard JSONL + manifest\n"
      "                            into --dir instead of --json\n"
      "      --dir DIR             campaign directory (required with --shard)\n"
      "      --resume              continue a partial shard from its\n"
      "                            manifest watermark\n"
      "      --stop-after K        commit at most K trials this invocation,\n"
      "                            then exit (deterministic kill for tests)\n"
      "      --streaming           stream each trial's JSONL line as it\n"
      "                            commits and drop the record — peak memory\n"
      "                            stays flat at any trial count (requires\n"
      "                            --json; the default for --shard runs)\n"
      "      --no-streaming        keep every record in memory (enables the\n"
      "                            summary table for --shard runs)\n"
      "      --artifacts           print per-trial charts/tables even for "
      "sweeps\n"
      "      --quiet               no per-trial progress on stderr\n"
      "  merge --dir DIR [--json PATH]\n"
      "                            validate every shard of the campaign in\n"
      "                            DIR and emit the merged JSONL (default\n"
      "                            stdout) — byte-identical to the\n"
      "                            unsharded --json stream\n"
      "  perf [options]            host hot-path timing suite\n"
      "      --out PATH            JSON report (default BENCH_hotpath.json,\n"
      "                            '-' = stdout)\n"
      "      --check               fail unless snapshot reuse and bed\n"
      "                            recycling reproduce fresh results\n"
      "                            exactly and recycled trials allocate\n"
      "                            <= 10%% of fresh ones\n"
      "      --compare PATH        diff kernels against a baseline report;\n"
      "                            fail if any is >15%% slower\n"
      "      --no-sweep            skip the fresh-vs-snapshot sweep section\n"
      "      --no-campaign         skip the campaign macro-benchmark\n"
      "                            (recycled-vs-fresh trial throughput)\n"
      "      --no-scaling          skip the strong-scaling section\n"
      "                            (streaming campaign throughput vs --jobs)\n");
  return out == stdout ? 0 : 2;
}

int cmd_perf(const std::vector<std::string>& args) {
  bench::PerfOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size())
        throw runtime::ParamError("--out needs an argument");
      options.out_path = args[++i];
    } else if (args[i] == "--check") {
      options.check = true;
    } else if (args[i] == "--compare") {
      if (i + 1 >= args.size())
        throw runtime::ParamError("--compare needs an argument");
      options.compare_path = args[++i];
    } else if (args[i] == "--no-sweep") {
      options.run_sweep = false;
    } else if (args[i] == "--no-campaign") {
      options.run_campaign = false;
    } else if (args[i] == "--no-scaling") {
      options.run_scaling = false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", args[i].c_str());
      return usage(stderr);
    }
  }
  return bench::run_perf_suite(options);
}

int cmd_list() {
  Table table({"experiment", "reproduces", "default trials", "description"});
  for (const runtime::Experiment* e : runtime::all_experiments()) {
    const auto trials = runtime::expand_sweep(*e, runtime::SweepSpec{});
    table.add(e->name, e->paper_ref, trials.size(), e->description);
  }
  std::printf("%s", table.to_text().c_str());
  return 0;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void print_policy_names(std::FILE* out) {
  Table policies({"policy slot", "registered names"});
  policies.add("mee.cache.indexing / llc.indexing",
               joined(cache::indexing_policy_names()));
  policies.add("mee.cache.replacement / llc.replacement",
               joined(cache::replacement_names()));
  policies.add("mee.cache.fill", joined(cache::fill_policy_names()));
  std::fprintf(out, "cache policy registries:\n%s",
               policies.to_text().c_str());
}

int cmd_params() {
  Table config({"config key", "meaning"});
  for (const auto& doc : runtime::config_key_docs()) config.add(doc.key, doc.doc);
  std::printf(
      "shared config keys — every one accepts --set key=value and\n"
      "--sweep key=a,b,c on any experiment:\n%s\n",
      config.to_text().c_str());
  print_policy_names(stdout);
  return 0;
}

int cmd_describe(const std::string& name) {
  const runtime::Experiment& e = runtime::get_experiment(name);
  std::printf("%s — %s\nreproduces: %s\n\n", e.name.c_str(),
              e.description.c_str(), e.paper_ref.c_str());
  if (!e.default_params.empty()) {
    Table params({"parameter", "default"});
    for (const auto& [key, value] : e.default_params) params.add(key, value);
    std::printf("experiment parameters:\n%s\n", params.to_text().c_str());
  }
  if (!e.default_sweeps.empty()) {
    Table sweeps({"default sweep axis", "values"});
    for (const auto& [key, values] : e.default_sweeps) sweeps.add(key, values);
    std::printf("%s\n", sweeps.to_text().c_str());
  }
  Table config({"shared config key", "meaning"});
  for (const auto& doc : runtime::config_key_docs())
    config.add(doc.key, doc.doc);
  std::printf("shared config keys (all experiments):\n%s\n",
              config.to_text().c_str());
  print_policy_names(stdout);
  return 0;
}

void print_setup_stats(const runtime::SetupStats& stats) {
  if (stats.builds + stats.memory_hits + stats.disk_hits == 0) return;
  std::fprintf(stderr,
               "setup reuse: %" PRIu64 " built, %" PRIu64 " memory hit%s, %" PRIu64
               " disk hit%s\n",
               stats.builds, stats.memory_hits,
               stats.memory_hits == 1 ? "" : "s", stats.disk_hits,
               stats.disk_hits == 1 ? "" : "s");
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string dir, json_path = "-";
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size())
        throw runtime::ParamError(args[i] + " needs an argument");
      return args[++i];
    };
    if (args[i] == "--dir") {
      dir = value();
    } else if (args[i] == "--json") {
      json_path = value();
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", args[i].c_str());
      return usage(stderr);
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "merge needs --dir DIR\n");
    return 2;
  }
  runtime::MergeResult merged;
  if (json_path == "-") {
    merged = runtime::merge_campaign(dir, std::cout);
    std::cout.flush();
  } else {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   json_path.c_str());
      return 1;
    }
    merged = runtime::merge_campaign(dir, out);
  }
  std::fprintf(stderr,
               "merged %u shard%s, %zu trial%s (campaign %016" PRIx64 ")\n",
               merged.shard_count, merged.shard_count == 1 ? "" : "s",
               merged.trials, merged.trials == 1 ? "" : "s", merged.hash);
  return 0;
}

int cmd_run(const std::string& name, const std::vector<std::string>& args) {
  const runtime::Experiment& experiment = runtime::get_experiment(name);

  runtime::SweepSpec sweep;
  unsigned jobs = 1;
  std::string json_path, trace_path, trace_chrome_path;
  std::string shard_text, campaign_dir, setup_store_dir;
  std::uint64_t trace_sample = 1, stop_after = 0;
  bool quiet = false, force_artifacts = false, show_counters = false;
  bool reuse_setup = true, recycle_systems = true, resume = false;
  bool streaming = false, streaming_set = false;
  const std::vector<std::string> rest =
      runtime::parse_sweep_args(args, &sweep);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    auto value = [&]() -> const std::string& {
      if (i + 1 >= rest.size())
        throw runtime::ParamError(arg + " needs an argument");
      return rest[++i];
    };
    if (arg == "--jobs") {
      jobs = static_cast<unsigned>(runtime::parse_u64("--jobs", value()));
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--counters") {
      show_counters = true;
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--trace-chrome") {
      trace_chrome_path = value();
    } else if (arg == "--trace-sample") {
      trace_sample = runtime::parse_u64("--trace-sample", value());
      if (trace_sample == 0) trace_sample = 1;
    } else if (arg == "--no-reuse-setup") {
      reuse_setup = false;
    } else if (arg == "--reuse-setup") {
      reuse_setup = true;
    } else if (arg == "--no-recycle-systems") {
      recycle_systems = false;
    } else if (arg == "--recycle-systems") {
      recycle_systems = true;
    } else if (arg == "--setup-store") {
      setup_store_dir = value();
    } else if (arg == "--shard") {
      shard_text = value();
    } else if (arg == "--dir") {
      campaign_dir = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--stop-after") {
      stop_after = runtime::parse_u64("--stop-after", value());
    } else if (arg == "--streaming") {
      streaming = true;
      streaming_set = true;
    } else if (arg == "--no-streaming") {
      streaming = false;
      streaming_set = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--artifacts") {
      force_artifacts = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(stderr);
    }
  }

  if (!shard_text.empty()) {
    if (campaign_dir.empty()) {
      std::fprintf(stderr, "--shard needs --dir DIR\n");
      return 2;
    }
    if (!json_path.empty() || !trace_path.empty() ||
        !trace_chrome_path.empty()) {
      std::fprintf(stderr,
                   "--shard writes the campaign directory; --json and "
                   "--trace do not apply (use 'merge')\n");
      return 2;
    }
  } else if (resume || stop_after != 0 || !campaign_dir.empty()) {
    std::fprintf(stderr, "--dir/--resume/--stop-after require --shard i/N\n");
    return 2;
  }

  // Campaigns default to bounded memory (the shard JSONL is the output
  // either way); plain runs keep records unless asked, since the summary
  // table and --counters read them.
  if (!streaming_set) streaming = !shard_text.empty();
  if (streaming && shard_text.empty()) {
    if (json_path.empty()) {
      std::fprintf(stderr,
                   "--streaming emits results as JSONL only; it needs "
                   "--json PATH ('-' for stdout)\n");
      return 2;
    }
    if (show_counters || force_artifacts) {
      std::fprintf(stderr,
                   "--counters/--artifacts need in-memory records; drop "
                   "them or use --no-streaming\n");
      return 2;
    }
  }

  const std::vector<runtime::TrialSpec> trials =
      runtime::expand_sweep(experiment, sweep);
  const std::vector<std::string> columns =
      runtime::swept_keys(experiment, sweep);

  const unsigned workers = runtime::resolve_jobs(jobs, trials.size());
  if (!quiet)
    std::fprintf(stderr, "%s: %zu trial%s, %u job%s\n",
                 experiment.name.c_str(), trials.size(),
                 trials.size() == 1 ? "" : "s", workers,
                 workers == 1 ? "" : "s");
  // Trace plumbing: file stream → (JSONL or Chrome) sink → optional
  // sampling decimator. The runner buffers per-trial events and replays
  // them in trial order, so traced sweeps still parallelize.
  std::ofstream trace_out;
  std::unique_ptr<obs::TraceSink> trace_sink;
  std::unique_ptr<obs::SamplingSink> sampler;
  if (!trace_path.empty() && !trace_chrome_path.empty()) {
    std::fprintf(stderr, "--trace and --trace-chrome are exclusive\n");
    return 2;
  }
  if (!trace_path.empty() || !trace_chrome_path.empty()) {
    const std::string& path =
        trace_path.empty() ? trace_chrome_path : trace_path;
    trace_out.open(path);
    if (!trace_out) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
      return 1;
    }
    if (trace_path.empty())
      trace_sink = std::make_unique<obs::ChromeTraceSink>(trace_out);
    else
      trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_out);
  }

  std::size_t completed = 0, progress_total = trials.size();
  runtime::RunnerConfig runner;
  runner.jobs = jobs;
  runner.reuse_setup = reuse_setup;
  runner.recycle_systems = recycle_systems;
  std::optional<runtime::SetupStore> setup_store;
  if (!setup_store_dir.empty()) {
    setup_store.emplace(setup_store_dir, experiment.name);
    runner.setup_store = &*setup_store;
  }
  if (trace_sink) {
    if (trace_sample > 1)
      sampler = std::make_unique<obs::SamplingSink>(*trace_sink, trace_sample);
    runner.trace_sink = sampler ? static_cast<obs::TraceSink*>(sampler.get())
                                : trace_sink.get();
  }
  if (!quiet) {
    runner.on_trial = [&](const runtime::TrialRecord& record) {
      ++completed;
      std::string brief;
      for (const std::string& key : columns) {
        const auto v = runtime::find_param(record.spec.params, key);
        if (v) brief += ' ' + key + '=' + std::string(*v);
      }
      std::fprintf(stderr, "[%zu/%zu] trial %zu seed %llu%s: %s\n", completed,
                   progress_total, record.spec.trial_index,
                   static_cast<unsigned long long>(record.spec.seed),
                   brief.c_str(),
                   record.ok ? "ok" : record.error.c_str());
    };
  }

  if (!shard_text.empty()) {
    runtime::CampaignShardOptions options;
    options.shard = runtime::parse_shard(shard_text);
    options.directory = campaign_dir;
    options.resume = resume;
    options.stop_after = stop_after;
    options.streaming = streaming;
    options.runner = runner;
    progress_total = runtime::shard_range(trials.size(), options.shard).size();
    const runtime::CampaignShardResult shard =
        runtime::run_campaign_shard(experiment, trials, options);
    if (!quiet) {
      print_setup_stats(shard.setup_stats);
      std::fprintf(
          stderr, "shard %u/%u: %zu/%zu trials committed%s%s\n",
          options.shard.index, options.shard.count, shard.manifest.committed,
          shard.manifest.trial_end - shard.manifest.trial_begin,
          shard.resumed_from != 0 ? " (resumed)" : "",
          shard.manifest.complete() ? "" : " — rerun with --resume to finish");
    }
    if (!streaming)
      std::printf(
          "%s",
          runtime::summary_table(shard.records, columns).to_text().c_str());
    return shard.failures != 0 ? 1 : 0;
  }

  if (streaming) {
    std::ofstream json_file;
    std::ostream* json_out = &std::cout;
    if (json_path != "-") {
      json_file.open(json_path, std::ios::binary);
      if (!json_file) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     json_path.c_str());
        return 1;
      }
      json_out = &json_file;
    }
    runtime::JsonlResultStream stream(*json_out);
    std::size_t failures = 0;
    const auto progress = runner.on_trial;
    runner.on_trial = [&](const runtime::TrialRecord& record) {
      if (!record.ok) ++failures;
      if (progress) progress(record);
    };
    runner.stream = &stream;
    runtime::SetupStats setup_stats;
    runtime::run_trials(experiment, trials, runner, &setup_stats);
    if (runner.trace_sink) runner.trace_sink->flush();
    json_out->flush();
    if (!*json_out) {
      std::fprintf(stderr, "write to '%s' failed\n", json_path.c_str());
      return 1;
    }
    if (!quiet) {
      print_setup_stats(setup_stats);
      std::fprintf(stderr, "streamed %zu trial%s to %s (%zu failed)\n",
                   trials.size(), trials.size() == 1 ? "" : "s",
                   json_path == "-" ? "stdout" : json_path.c_str(), failures);
    }
    return failures != 0 ? 1 : 0;
  }

  runtime::SetupStats setup_stats;
  const std::vector<runtime::TrialRecord> records =
      runtime::run_trials(experiment, trials, runner, &setup_stats);
  if (runner.trace_sink) runner.trace_sink->flush();
  if (!quiet) print_setup_stats(setup_stats);

  // The JSONL goes out first: whatever happens while formatting the human
  // summary, the sweep's results are already written.
  if (!json_path.empty()) {
    if (json_path == "-") {
      runtime::write_jsonl(std::cout, records);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     json_path.c_str());
        return 1;
      }
      runtime::write_jsonl(out, records);
      if (!quiet)
        std::fprintf(stderr, "wrote %zu JSONL record%s to %s\n",
                     records.size(), records.size() == 1 ? "" : "s",
                     json_path.c_str());
    }
  }

  // With --json - the JSONL stream owns stdout; human output moves to stderr.
  std::FILE* human = json_path == "-" ? stderr : stdout;
  if (force_artifacts || records.size() == 1) {
    for (const auto& record : records)
      if (record.ok && !record.result.artifact_text.empty())
        std::fprintf(human, "%s\n", record.result.artifact_text.c_str());
  }
  std::fprintf(human, "%s",
               runtime::summary_table(records, columns).to_text().c_str());
  if (show_counters) {
    const auto merged = runtime::merge_counters(records);
    std::fprintf(human, "\nmerged counters (%zu trial%s):\n%s",
                 records.size(), records.size() == 1 ? "" : "s",
                 runtime::counters_table(merged).to_text().c_str());
  }

  for (const auto& record : records)
    if (!record.ok) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  runtime::register_builtin_experiments();
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage(stderr);
    if (args[0] == "help" || args[0] == "--help" || args[0] == "-h")
      return usage(stdout);
    if (args[0] == "list") return cmd_list();
    if (args[0] == "params") return cmd_params();
    if (args[0] == "describe") {
      if (args.size() != 2) return usage(stderr);
      return cmd_describe(args[1]);
    }
    if (args[0] == "run") {
      if (args.size() < 2) return usage(stderr);
      return cmd_run(args[1], {args.begin() + 2, args.end()});
    }
    if (args[0] == "merge") return cmd_merge({args.begin() + 1, args.end()});
    if (args[0] == "perf") return cmd_perf({args.begin() + 1, args.end()});
    std::fprintf(stderr, "unknown command '%s'\n", args[0].c_str());
    return usage(stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meecc_bench: %s\n", e.what());
    return 2;
  }
}
