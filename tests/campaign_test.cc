// Shard/merge determinism matrix: the merged output of every shard split
// ({1/1}, {i/2}, {i/4}) at --jobs 1 and 4 must be byte-identical to the
// unsharded JSONL stream, a shard killed mid-run must resume from its
// manifest watermark with no duplicated or skipped trials, and every
// invalid-campaign shape (drifted sweep, missing shard, partial shard)
// must be refused loudly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/proc_rss.h"
#include "common/rng.h"
#include "runtime/campaign.h"
#include "runtime/experiment.h"
#include "runtime/params.h"
#include "runtime/runner.h"
#include "runtime/sink.h"

namespace meecc {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("meecc_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Cheap deterministic experiment: per-trial metrics derived from the seed
/// through an RNG, so any duplicated, skipped, or re-seeded trial shows up
/// as a wrong byte in the JSONL.
runtime::Experiment toy_experiment() {
  runtime::Experiment exp;
  exp.name = "toy_campaign";
  exp.run = [](const runtime::TrialSpec& spec) {
    Rng rng(spec.seed * 1009 + spec.trial_index);
    runtime::TrialResult result;
    result.metric("value", static_cast<double>(rng.next_u64() % 1000000));
    result.metric("trial", static_cast<double>(spec.trial_index));
    return result;
  };
  return exp;
}

std::vector<runtime::TrialSpec> toy_trials(std::size_t count) {
  std::vector<runtime::TrialSpec> trials;
  for (std::size_t i = 0; i < count; ++i)
    trials.push_back(runtime::TrialSpec{
        .experiment = "toy_campaign",
        .trial_index = i,
        .seed = 42 + i,
        .params = {{"mode", i % 2 ? "odd" : "even"}}});
  return trials;
}

std::string unsharded_jsonl(const runtime::Experiment& exp,
                            const std::vector<runtime::TrialSpec>& trials,
                            unsigned jobs) {
  runtime::RunnerConfig config;
  config.jobs = jobs;
  const auto records = runtime::run_trials(exp, trials, config);
  std::ostringstream out;
  runtime::write_jsonl(out, records);
  return std::move(out).str();
}

std::string merged_jsonl(const std::string& directory) {
  std::ostringstream out;
  runtime::merge_campaign(directory, out);
  return std::move(out).str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

// ---------------------------------------------------------------------------
// Partition arithmetic.

TEST(ShardSpec, ParseAcceptsValidAndRejectsMalformed) {
  const runtime::ShardSpec spec = runtime::parse_shard("2/4");
  EXPECT_EQ(spec.index, 2u);
  EXPECT_EQ(spec.count, 4u);
  for (const char* bad : {"", "3", "/4", "3/", "0/4", "5/4", "a/b", "1/0"})
    EXPECT_THROW(runtime::parse_shard(bad), runtime::ParamError) << bad;
}

TEST(ShardSpec, RangesTileEveryTotalExactly) {
  for (const std::size_t total : {0u, 1u, 5u, 7u, 16u, 101u}) {
    for (const unsigned count : {1u, 2u, 3u, 4u, 7u, 13u}) {
      std::size_t expected_begin = 0;
      for (unsigned i = 1; i <= count; ++i) {
        const runtime::ShardRange range = runtime::shard_range(
            total, runtime::ShardSpec{.index = i, .count = count});
        EXPECT_EQ(range.begin, expected_begin)
            << total << " trials, shard " << i << "/" << count;
        EXPECT_GE(range.end, range.begin);
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, total) << count << " shards";
    }
  }
}

TEST(ShardManifest, JsonRoundTripsAndRejectsNonsense) {
  const runtime::ShardManifest manifest{.experiment = "fig7_window_sweep",
                                        .hash = 0xdeadbeefcafef00dULL,
                                        .shard_index = 2,
                                        .shard_count = 3,
                                        .trial_begin = 5,
                                        .trial_end = 9,
                                        .committed = 2};
  const runtime::ShardManifest copy =
      runtime::manifest_from_json(runtime::manifest_to_json(manifest));
  EXPECT_EQ(copy.experiment, manifest.experiment);
  EXPECT_EQ(copy.hash, manifest.hash);
  EXPECT_EQ(copy.format_version, manifest.format_version);
  EXPECT_EQ(copy.shard_index, manifest.shard_index);
  EXPECT_EQ(copy.shard_count, manifest.shard_count);
  EXPECT_EQ(copy.trial_begin, manifest.trial_begin);
  EXPECT_EQ(copy.trial_end, manifest.trial_end);
  EXPECT_EQ(copy.committed, manifest.committed);

  EXPECT_THROW(runtime::manifest_from_json(""), runtime::ParamError);
  EXPECT_THROW(runtime::manifest_from_json("{\"campaign\":\"x\"}"),
               runtime::ParamError);
  // committed beyond the range is structurally impossible output.
  EXPECT_THROW(
      runtime::manifest_from_json(
          "{\"campaign\":\"x\",\"committed\":9,\"format_version\":1,"
          "\"hash\":\"00000000000000aa\",\"shard_count\":1,\"shard_index\":1,"
          "\"trial_begin\":0,\"trial_end\":3}"),
      runtime::ParamError);
}

TEST(CampaignHash, TracksEveryTrialListIngredient) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(6);
  const std::uint64_t base = runtime::campaign_hash(exp, trials);
  EXPECT_EQ(runtime::campaign_hash(exp, trials), base);  // stable

  auto fewer = trials;
  fewer.pop_back();
  EXPECT_NE(runtime::campaign_hash(exp, fewer), base);

  auto reseeded = trials;
  reseeded[3].seed ^= 1;
  EXPECT_NE(runtime::campaign_hash(exp, reseeded), base);

  auto reparam = trials;
  reparam[0].params[0].second = "weird";
  EXPECT_NE(runtime::campaign_hash(exp, reparam), base);

  runtime::Experiment renamed = toy_experiment();
  renamed.name = "toy_campaign_v2";
  EXPECT_NE(runtime::campaign_hash(renamed, trials), base);
}

// ---------------------------------------------------------------------------
// The determinism matrix.

TEST(CampaignMatrix, EverySplitAndJobCountMergesByteIdentical) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(10);
  const std::string reference = unsharded_jsonl(exp, trials, 1);
  ASSERT_FALSE(reference.empty());
  // The runner itself is jobs-invariant; the matrix below then checks the
  // campaign machinery cannot break what the runner guarantees.
  ASSERT_EQ(unsharded_jsonl(exp, trials, 4), reference);

  for (const unsigned shards : {1u, 2u, 4u}) {
    for (const unsigned jobs : {1u, 4u}) {
      for (const bool streaming : {false, true}) {
        ScratchDir dir("matrix_" + std::to_string(shards) + "_" +
                       std::to_string(jobs) + (streaming ? "_s" : ""));
        for (unsigned i = 1; i <= shards; ++i) {
          runtime::CampaignShardOptions options;
          options.shard = runtime::ShardSpec{.index = i, .count = shards};
          options.directory = dir.str();
          options.runner.jobs = jobs;
          options.streaming = streaming;
          const auto result =
              runtime::run_campaign_shard(exp, trials, options);
          EXPECT_TRUE(result.manifest.complete());
          EXPECT_EQ(result.failures, 0u);
          // Streaming mode drops records after commit; the bytes on disk
          // are the only output, and they must not change. Otherwise the
          // returned records encode to exactly the shard's bytes.
          if (streaming) {
            EXPECT_TRUE(result.records.empty());
          } else {
            std::ostringstream from_records;
            runtime::write_jsonl(from_records, result.records);
            EXPECT_EQ(from_records.str(),
                      slurp(runtime::shard_jsonl_path(dir.str(),
                                                      options.shard)))
                << "shard " << i << "/" << shards << " at jobs=" << jobs;
          }
        }
        EXPECT_EQ(merged_jsonl(dir.str()), reference)
            << shards << " shards at jobs=" << jobs
            << " streaming=" << streaming;
      }
    }
  }
}

TEST(CampaignResume, KilledShardResumesFromWatermarkWithoutDupOrSkip) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(9);
  const std::string reference = unsharded_jsonl(exp, trials, 1);
  ScratchDir dir("resume");

  // Shard 1/2 owns trials [0, 4). Kill it after 2 commits.
  runtime::CampaignShardOptions options;
  options.shard = runtime::ShardSpec{.index = 1, .count = 2};
  options.directory = dir.str();
  options.stop_after = 2;
  options.runner.jobs = 4;
  const auto killed = runtime::run_campaign_shard(exp, trials, options);
  EXPECT_FALSE(killed.manifest.complete());
  EXPECT_EQ(killed.manifest.committed, 2u);
  EXPECT_EQ(killed.records.size(), 2u);

  // Merging a campaign with a partial shard must refuse, not emit a short
  // stream.
  std::ostringstream sink;
  EXPECT_THROW(runtime::merge_campaign(dir.str(), sink),
               runtime::ParamError);

  // Resume finishes exactly the remaining trials — watermark forward, no
  // repeats (the records of the resumed invocation start at trial 2).
  options.stop_after = 0;
  options.resume = true;
  const auto resumed = runtime::run_campaign_shard(exp, trials, options);
  EXPECT_TRUE(resumed.manifest.complete());
  EXPECT_EQ(resumed.resumed_from, 2u);
  ASSERT_EQ(resumed.records.size(), 2u);
  EXPECT_EQ(resumed.records[0].spec.trial_index, 2u);
  EXPECT_EQ(resumed.records[1].spec.trial_index, 3u);

  // Resuming a complete shard is a no-op, not a rerun.
  const auto again = runtime::run_campaign_shard(exp, trials, options);
  EXPECT_TRUE(again.records.empty());
  EXPECT_TRUE(again.manifest.complete());

  options.shard = runtime::ShardSpec{.index = 2, .count = 2};
  options.resume = false;
  runtime::run_campaign_shard(exp, trials, options);
  EXPECT_EQ(merged_jsonl(dir.str()), reference);
}

// A kill between the JSONL append and the manifest rewrite leaves an extra
// uncommitted line; resume must truncate it and rerun that trial, keeping
// the merged bytes identical.
TEST(CampaignResume, TruncatesUncommittedTailLines) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(6);
  const std::string reference = unsharded_jsonl(exp, trials, 1);
  ScratchDir dir("torn");

  runtime::CampaignShardOptions options;
  options.shard = runtime::ShardSpec{.index = 1, .count = 1};
  options.directory = dir.str();
  options.stop_after = 3;
  const auto killed = runtime::run_campaign_shard(exp, trials, options);
  EXPECT_EQ(killed.manifest.committed, 3u);

  // Simulate the torn state: a line landed in the JSONL after the last
  // manifest write.
  const std::string data_path =
      runtime::shard_jsonl_path(dir.str(), options.shard);
  {
    std::ofstream out(data_path, std::ios::binary | std::ios::app);
    out << "{\"garbage\":\"line the crash left behind\"}\n";
  }

  options.stop_after = 0;
  options.resume = true;
  const auto resumed = runtime::run_campaign_shard(exp, trials, options);
  EXPECT_TRUE(resumed.manifest.complete());
  EXPECT_EQ(resumed.resumed_from, 3u);
  EXPECT_EQ(merged_jsonl(dir.str()), reference);
}

TEST(CampaignResume, RefusesManifestFromAnotherCampaign) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(8);
  ScratchDir dir("drift");

  runtime::CampaignShardOptions options;
  options.shard = runtime::ShardSpec{.index = 1, .count = 2};
  options.directory = dir.str();
  options.stop_after = 1;
  runtime::run_campaign_shard(exp, trials, options);

  // Same directory, drifted trial list (one more seed): the watermark
  // belongs to different trials, so resume must refuse.
  options.resume = true;
  options.stop_after = 0;
  EXPECT_THROW(runtime::run_campaign_shard(exp, toy_trials(9), options),
               runtime::ParamError);
  // Without --resume the shard restarts from scratch instead.
  options.resume = false;
  const auto restarted =
      runtime::run_campaign_shard(exp, toy_trials(9), options);
  EXPECT_TRUE(restarted.manifest.complete());
  EXPECT_EQ(restarted.resumed_from, 0u);
}

// The runner batches up to kCommitBatch lines per manifest rewrite.
// Kill a shard mid-batch (a throwing callback interrupts the pipeline
// between commits) and check the durability invariant the batching must
// not weaken: the watermark never runs ahead of the flushed JSONL lines,
// and what is committed is an exact prefix of the reference stream.
TEST(CampaignResume, MidBatchKillNeverCommitsAheadOfDurableLines) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(100);
  const std::string reference = unsharded_jsonl(exp, trials, 1);

  const auto count_lines = [](const std::string& text) {
    std::size_t lines = 0;
    for (const char c : text) lines += c == '\n';
    return lines;
  };
  const auto prefix_lines = [](const std::string& text, std::size_t n) {
    std::size_t pos = 0;
    for (std::size_t line = 0; line < n; ++line)
      pos = text.find('\n', pos) + 1;
    return text.substr(0, pos);
  };

  for (const unsigned jobs : {1u, 4u}) {
    ScratchDir dir("midbatch_" + std::to_string(jobs));
    runtime::CampaignShardOptions options;
    options.shard = runtime::ShardSpec{.index = 1, .count = 1};
    options.directory = dir.str();
    options.streaming = true;
    options.runner.jobs = jobs;
    std::size_t done = 0;
    options.runner.on_trial = [&done](const runtime::TrialRecord&) {
      if (++done == 70) throw std::runtime_error("killed mid-batch");
    };
    EXPECT_THROW(runtime::run_campaign_shard(exp, trials, options),
                 std::runtime_error);

    const runtime::ShardManifest manifest = runtime::manifest_from_json(
        slurp(runtime::shard_manifest_path(dir.str(), options.shard)));
    const std::string data =
        slurp(runtime::shard_jsonl_path(dir.str(), options.shard));
    ASSERT_GE(count_lines(data), manifest.committed)
        << "watermark ran ahead of durable lines at jobs=" << jobs;
    EXPECT_EQ(prefix_lines(data, manifest.committed),
              prefix_lines(reference, manifest.committed));
    if (jobs == 1) {
      // The inline path flushes only on a full batch, so exactly one
      // batch of kCommitBatch trials was durable when the kill landed
      // after trial 70 — proof the watermark moves per batch, not per
      // trial.
      EXPECT_EQ(manifest.committed, runtime::kCommitBatch);
      EXPECT_EQ(count_lines(data), runtime::kCommitBatch);
    }

    // Resume reruns everything past the watermark; the merged campaign is
    // byte-identical to a run that was never killed.
    options.resume = true;
    options.runner.on_trial = nullptr;
    const auto resumed = runtime::run_campaign_shard(exp, trials, options);
    EXPECT_TRUE(resumed.manifest.complete());
    EXPECT_EQ(resumed.resumed_from, manifest.committed);
    EXPECT_EQ(merged_jsonl(dir.str()), reference) << "jobs=" << jobs;
  }
}

// The bounded-memory contract behind --streaming: peak RSS of a 100k-trial
// streaming campaign stays within a constant band of a 1k-trial one, at
// jobs 1 and 4. If anything on the per-trial path still accumulates
// (records kept, lines retained, per-trial trace buffers, results piling
// up behind a slow trial), 100k trials of 32 metrics each blow past the
// band by hundreds of MB. Most of the band is the test's own 100k-spec
// vector.
TEST(CampaignStreaming, HundredThousandTrialRssStaysFlat) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "peak RSS is not meaningful under sanitizers";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "peak RSS is not meaningful under sanitizers";
#endif
#endif
  runtime::Experiment exp;
  exp.name = "toy_campaign_wide";
  exp.run = [](const runtime::TrialSpec& spec) {
    Rng rng(spec.seed * 1009 + spec.trial_index);
    runtime::TrialResult result;
    for (int m = 0; m < 32; ++m)
      result.metric("m" + std::to_string(m),
                    static_cast<double>(rng.next_u64() % 1000000));
    return result;
  };
  const auto wide_trials = [](std::size_t count) {
    std::vector<runtime::TrialSpec> trials(count);
    for (std::size_t i = 0; i < count; ++i) {
      trials[i].experiment = "toy_campaign_wide";
      trials[i].trial_index = i;
      trials[i].seed = 42 + i;
    }
    return trials;
  };
  const auto run_streaming = [](const runtime::Experiment& e,
                                const std::vector<runtime::TrialSpec>& t,
                                unsigned jobs, const std::string& tag) {
    ScratchDir dir(tag + "_" + std::to_string(jobs));
    runtime::CampaignShardOptions options;
    options.shard = runtime::ShardSpec{.index = 1, .count = 1};
    options.directory = dir.str();
    options.streaming = true;
    options.runner.jobs = jobs;
    const auto result = runtime::run_campaign_shard(e, t, options);
    ASSERT_TRUE(result.manifest.complete());
    ASSERT_TRUE(result.records.empty());
  };

  for (const unsigned jobs : {1u, 4u}) {
    // VmHWM is a monotonic high-water mark, so each big run is measured
    // against the mark reached before it, after a small run at the same
    // job count has warmed the allocator and the threads.
    run_streaming(exp, wide_trials(1000), jobs, "rss_small");
    const double baseline_mb = peak_rss_mb();
    if (baseline_mb <= 0.0) GTEST_SKIP() << "/proc/self/status unreadable";

    run_streaming(exp, wide_trials(100000), jobs, "rss_big");
    const double peak_mb = peak_rss_mb();

    EXPECT_LT(peak_mb - baseline_mb, 24.0)
        << "streaming RSS grew with trial count at jobs=" << jobs << ": "
        << baseline_mb << " MB -> " << peak_mb << " MB";
  }
}

TEST(CampaignMerge, RefusesMissingShardAndForeignManifest) {
  const runtime::Experiment exp = toy_experiment();
  const auto trials = toy_trials(8);
  ScratchDir dir("holes");

  runtime::CampaignShardOptions options;
  options.directory = dir.str();
  options.shard = runtime::ShardSpec{.index = 1, .count = 3};
  runtime::run_campaign_shard(exp, trials, options);
  options.shard = runtime::ShardSpec{.index = 3, .count = 3};
  runtime::run_campaign_shard(exp, trials, options);

  std::ostringstream sink;
  EXPECT_THROW(runtime::merge_campaign(dir.str(), sink),
               runtime::ParamError);  // shard 2/3 missing

  // Complete the campaign but from a drifted trial list: hash mismatch.
  options.shard = runtime::ShardSpec{.index = 2, .count = 3};
  runtime::run_campaign_shard(exp, toy_trials(8), options);
  std::ostringstream ok_sink;
  EXPECT_NO_THROW(runtime::merge_campaign(dir.str(), ok_sink));

  runtime::run_campaign_shard(toy_experiment(), toy_trials(7), options);
  EXPECT_THROW(runtime::merge_campaign(dir.str(), sink),
               runtime::ParamError);  // 2/3 now belongs elsewhere

  EXPECT_THROW(runtime::merge_campaign(dir.str() + "/nonexistent", sink),
               runtime::ParamError);
}

}  // namespace
}  // namespace meecc
