// Sharded, resumable sweep campaigns.
//
// A campaign is one expanded sweep (experiment + trial list) split across N
// shards. Shard i/N owns the contiguous trial range
// [floor((i-1)*T/N), floor(i*T/N)) of the expansion, so the concatenation
// of shard outputs in shard order IS the unsharded `--json` stream —
// byte-identical at any shard split and any --jobs value.
//
// Each shard writes two files into the campaign directory:
//   shard-XXXX-of-YYYY.jsonl          one JSON line per trial, trial order
//   shard-XXXX-of-YYYY.manifest.json  self-describing progress record
//
// The manifest carries the campaign hash (experiment name + the full
// expanded trial list, so any drift in sweep arguments between invocations
// is caught), the shard's trial range, and the completion watermark: the
// count of trials whose JSONL lines are durably committed. The commit
// protocol is append-JSONL-then-flush, then rewrite the manifest atomically
// (temp file + rename) — so after a kill at ANY point, the first
// `committed` lines of the shard JSONL are valid and everything after them
// is garbage a resume may discard. Results finish out of order under
// --jobs N; the runner retires them in trial order (runner.h) and hands
// this file contiguous in-order batches of up to kCommitBatch lines, so the shard pays one flush and one manifest
// rewrite per batch instead of per trial. The watermark still only ever
// trails durable lines — batching changes commit granularity, never the
// crash-consistency invariant.
//
// `merge` scans the directory for manifests, checks that exactly one
// campaign is present (equal hashes, equal shard counts, every index
// exactly once), that ranges tile [0, T), and that every watermark is full
// — then streams the shard JSONLs out in shard order. Any gap, mismatch,
// or partial shard is a ParamError naming the offending shard, never a
// silently short output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/experiment.h"
#include "runtime/runner.h"

namespace meecc::runtime {

/// Bump when the manifest schema or the shard commit protocol changes;
/// resume and merge refuse manifests from another version.
inline constexpr std::uint32_t kCampaignFormatVersion = 1;

/// One-based shard coordinates, as written on the CLI: "--shard 2/4".
struct ShardSpec {
  unsigned index = 1;
  unsigned count = 1;
};

/// Parses "i/N"; throws ParamError unless 1 <= i <= N.
ShardSpec parse_shard(const std::string& text);

/// Half-open global trial range owned by a shard: the contiguous partition
/// [floor((i-1)*T/N), floor(i*T/N)). Ranges tile [0, T) exactly, and a
/// shard of a small campaign may legitimately be empty.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

ShardRange shard_range(std::size_t total_trials, const ShardSpec& shard);

/// Content identity of a campaign: FNV over the campaign format version,
/// the experiment name, and every expanded trial (index, seed, params in
/// order). Two invocations agree on the hash iff they would run the same
/// trials — the guard behind resume and merge.
std::uint64_t campaign_hash(const Experiment& experiment,
                            const std::vector<TrialSpec>& trials);

struct ShardManifest {
  std::string experiment;
  std::uint64_t hash = 0;
  std::uint32_t format_version = kCampaignFormatVersion;
  unsigned shard_index = 1;
  unsigned shard_count = 1;
  std::size_t trial_begin = 0;
  std::size_t trial_end = 0;
  /// Trials durably committed to the shard JSONL, counted from
  /// trial_begin. Invariant: the first `committed` lines of the JSONL are
  /// exactly to_json_line() of trials [trial_begin, trial_begin+committed).
  std::size_t committed = 0;

  bool complete() const { return committed == trial_end - trial_begin; }
};

std::string shard_jsonl_path(const std::string& directory,
                             const ShardSpec& shard);
std::string shard_manifest_path(const std::string& directory,
                                const ShardSpec& shard);

/// Deterministic single-object JSON (sorted, fixed key set).
std::string manifest_to_json(const ShardManifest& manifest);
/// Throws ParamError on missing keys or malformed values.
ShardManifest manifest_from_json(std::string_view json);

struct CampaignShardOptions {
  ShardSpec shard;
  std::string directory;
  /// Continue a partial shard from its manifest watermark instead of
  /// starting over. The existing manifest must match this campaign
  /// (hash, format version, coordinates) or the run refuses.
  bool resume = false;
  /// Run at most this many not-yet-committed trials this invocation, then
  /// return with a partial watermark (0 = no limit). This is the
  /// deterministic stand-in for a kill: the shard files are left exactly
  /// as a crash between commits would.
  std::size_t stop_after = 0;
  /// Drop each TrialRecord once its line is committed instead of
  /// returning them all in CampaignShardResult::records — peak RSS stays
  /// independent of shard size. `failures` still counts, and on_trial
  /// still sees every full record.
  bool streaming = false;
  /// jobs / setup_store / on_trial pass through to the runner; the
  /// campaign installs its own ResultStream committer (and failure
  /// counter) around them.
  RunnerConfig runner;
};

struct CampaignShardResult {
  ShardManifest manifest;  ///< final state, as last written to disk
  /// Records of the trials executed THIS invocation, in trial order
  /// (resumed or stopped-early shards cover a sub-range). Empty when
  /// options.streaming — read the shard JSONL instead.
  std::vector<TrialRecord> records;
  SetupStats setup_stats;        ///< this invocation's setup resolutions
  std::size_t resumed_from = 0;  ///< watermark inherited at start
  std::size_t failures = 0;      ///< trials with ok=false this invocation
};

/// Runs (or resumes) one shard of the campaign over the full expanded
/// trial list, committing results to the shard JSONL in trial order as
/// they retire. Throws ParamError on manifest/campaign mismatch and
/// CheckFailure-free I/O errors as std::runtime_error.
CampaignShardResult run_campaign_shard(const Experiment& experiment,
                                       const std::vector<TrialSpec>& trials,
                                       const CampaignShardOptions& options);

struct MergeResult {
  std::uint64_t hash = 0;
  unsigned shard_count = 0;
  std::size_t trials = 0;
};

/// Validates and concatenates every shard of the (single) campaign found
/// in `directory` into `out`. The output is byte-identical to the
/// unsharded `--json` stream of the same sweep.
MergeResult merge_campaign(const std::string& directory, std::ostream& out);

}  // namespace meecc::runtime
