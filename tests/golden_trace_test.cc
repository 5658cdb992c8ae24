// Golden-trace regression: the fixed-seed quickstart scenario must emit a
// byte-identical trace-event prefix, run after run and commit after commit.
// Any change to instrumentation sites, event ordering, or serialization
// shows up as a diff against tests/golden/quickstart_trace.jsonl.
//
// Regenerate deliberately after an intended change with
//   MEECC_UPDATE_GOLDEN=1 ./golden_trace_test
// On mismatch the actual trace is written next to the build tree
// (obs_artifacts/quickstart_trace.actual.jsonl) so CI can upload it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "obs/scope.h"
#include "obs/trace.h"

#ifndef MEECC_GOLDEN_DIR
#error "build must define MEECC_GOLDEN_DIR"
#endif
#ifndef MEECC_ARTIFACT_DIR
#error "build must define MEECC_ARTIFACT_DIR"
#endif

namespace meecc {
namespace {

constexpr std::size_t kGoldenEvents = 256;

/// The quickstart scenario (examples/quickstart.cpp) at seed 1, with a
/// payload trimmed to test size; the trace prefix covers enclave setup —
/// system reads/writes, cache fills and evictions, and MEE walks.
std::vector<std::string> quickstart_trace_lines() {
  obs::CollectingSink sink(kGoldenEvents);
  {
    obs::TrialScope scope(&sink);
    channel::TestBed bed(channel::default_testbed_config(1));
    const auto payload = channel::alternating_bits(8);
    const auto result =
        channel::run_covert_channel(bed, channel::ChannelConfig{}, payload);
    EXPECT_TRUE(result.monitor_found);
  }
  std::vector<std::string> lines;
  lines.reserve(sink.events().size());
  for (const obs::TraceEvent& event : sink.events())
    lines.push_back(obs::JsonlTraceSink::to_json_line(event));
  return lines;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(GoldenTrace, QuickstartPrefixMatchesGolden) {
  if (!obs::kTracingCompiledIn)
    GTEST_SKIP() << "tracing compiled out (MEECC_DISABLE_TRACING)";

  const auto actual = quickstart_trace_lines();
  ASSERT_EQ(actual.size(), kGoldenEvents)
      << "scenario produced fewer events than the golden prefix length";

  const std::filesystem::path golden_path =
      std::filesystem::path(MEECC_GOLDEN_DIR) / "quickstart_trace.jsonl";
  if (std::getenv("MEECC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    for (const std::string& line : actual) out << line << '\n';
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }

  const auto expected = read_lines(golden_path);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << golden_path
      << " — regenerate with MEECC_UPDATE_GOLDEN=1";

  bool match = expected.size() == actual.size();
  std::size_t first_diff = actual.size();
  for (std::size_t i = 0; match && i < actual.size(); ++i) {
    if (actual[i] != expected[i]) {
      match = false;
      first_diff = i;
    }
  }
  if (!match) {
    // Preserve the actual trace for the CI artifact uploader.
    const std::filesystem::path dir(MEECC_ARTIFACT_DIR);
    std::filesystem::create_directories(dir);
    std::ofstream out(dir / "quickstart_trace.actual.jsonl");
    for (const std::string& line : actual) out << line << '\n';

    std::ostringstream message;
    message << "trace diverges from " << golden_path << " (sizes "
            << actual.size() << " vs " << expected.size() << ")";
    if (first_diff < actual.size() && first_diff < expected.size()) {
      message << "\nfirst difference at event " << first_diff
              << "\n  expected: " << expected[first_diff]
              << "\n  actual:   " << actual[first_diff];
    }
    message << "\nactual trace written to "
            << (dir / "quickstart_trace.actual.jsonl")
            << "\nif the change is intended, regenerate with "
               "MEECC_UPDATE_GOLDEN=1";
    FAIL() << message.str();
  }
}

TEST(GoldenTrace, TraceIsRunToRunDeterministic) {
  if (!obs::kTracingCompiledIn)
    GTEST_SKIP() << "tracing compiled out (MEECC_DISABLE_TRACING)";
  EXPECT_EQ(quickstart_trace_lines(), quickstart_trace_lines());
}

}  // namespace
}  // namespace meecc
