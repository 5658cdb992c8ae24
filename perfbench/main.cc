// meecc_perfbench: the repository benchmark binary.
//
//   meecc_perfbench --workload fig7_figure|campaign_stream|enclave_rw
//                   --seed N --seconds S --trace 0|1 [--tiny]
//
// Runs one workload for S seconds of measured rounds and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}: the
// seven end-to-end metrics with --trace 0, every per-layer metric with
// --trace 1. The line before it is a context object (digest of simulated
// statistics, tail percentile and sample count, nproc and jobs, load,
// build type, AES backend); failed checks are explained on stderr. Exit 0
// with a result (correct=false when a check failed), 1 on an error, 2 on
// bad usage.
//
// Every workload runs on one thread (runtime::run_trials at jobs=1, or
// direct engine calls), so a run never asks for more than one CPU.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "crypto/aes_backend.h"
#include "report.h"
#include "runtime/experiments.h"

namespace meecc::perfbench {

Outcome run_fig7_figure(const Options& options);
Outcome run_campaign_stream(const Options& options);
Outcome run_enclave_rw(const Options& options);

namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"fig7_figure", run_fig7_figure},
    {"campaign_stream", run_campaign_stream},
    {"enclave_rw", run_enclave_rw},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "meecc_perfbench: %s\nusage: meecc_perfbench --workload "
               "fig7_figure|campaign_stream|enclave_rw --seed N --seconds S "
               "--trace 0|1 [--tiny]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    usage("bad value for " + flag + ": " + text);
  return value;
}

Options parse_args(int argc, char** argv) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    seen.insert(flag);
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_number(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_number(flag, value);
      if (seconds == 0 || seconds > 3600) usage("--seconds must be 1..3600");
      options.seconds = static_cast<double>(seconds);
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_number(flag, value);
      if (trace > 1) usage("--trace must be 0 or 1");
      options.trace = trace == 1;
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (seen.count(required) == 0) usage(std::string("missing ") + required);
  return options;
}

std::string load_average() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) return "unknown";
  return fmt(load[0]) + "/" + fmt(load[1]) + "/" + fmt(load[2]);
}

/// A JSON string literal; the benchmark only emits ASCII text.
std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + '"';
}

std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    out += quote(key) + ':' + quote(value);
  }
  return out + '}';
}

std::string json_number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

int run(int argc, char** argv) {
  Options options = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (options.workload == w.name) workload = &w;
  if (workload == nullptr) usage("unknown workload " + options.workload);

  const std::string load_start = load_average();
  const auto t0 = Clock::now();
  runtime::register_builtin_experiments();
  options.register_s = seconds_between(t0, Clock::now());

  Outcome out = workload->run(options);

  if (options.trace) {
    std::vector<Metric> layers;
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = out.layers.find(name);
      layers.push_back({name, it != out.layers.end() ? it->second : 0.0, unit});
      if (it != out.layers.end()) out.layers.erase(it);
    }
    for (const auto& [name, value] : out.layers)
      out.fail("unlisted per-layer metric " + name);
    out.metrics = std::move(layers);
  }

  out.note("workload", workload->name);
  out.note("seed", std::to_string(options.seed));
  out.note("nproc", std::to_string(available_cpus()));
  out.note("jobs", "1");
  out.note("load_start", load_start);
  out.note("load_end", load_average());
  out.note("build_type", MEECC_PERFBENCH_BUILD_TYPE);
  out.note("aes_backend_auto",
           std::string(crypto::resolve_aes_backend(crypto::kAutoBackend)));
  for (const Metric& m : out.metrics)
    if (!std::isfinite(m.value))
      out.fail("metric " + m.name + " is not finite");
  for (const std::string& problem : out.problems)
    std::fprintf(stderr, "meecc_perfbench: check failed: %s\n",
                 problem.c_str());

  std::string metrics;
  for (const Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ',';
    metrics += quote(m.name) + ":{\"value\":" +
               json_number(std::isfinite(m.value) ? m.value : 0.0) +
               ",\"unit\":" + quote(m.unit) + '}';
  }
  std::cout << "{\"context\":" << json_object(out.context) << "}\n"
            << "{\"correct\":" << (out.correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":{" << metrics
            << "}}" << std::endl;
  return 0;
}

}  // namespace meecc::perfbench

int main(int argc, char** argv) {
  try {
    return meecc::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meecc_perfbench: %s\n", e.what());
    return 1;
  }
}
