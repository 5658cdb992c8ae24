#include "runtime/campaign.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <utility>

#include "common/bytes.h"
#include "runtime/params.h"
#include "runtime/sink.h"

namespace meecc::runtime {

namespace fs = std::filesystem;

namespace {

std::uint64_t parse_counting_number(std::string_view text,
                                    std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw ParamError("bad " + std::string(what) + " '" + std::string(text) +
                     "'");
  return value;
}

std::string shard_stem(const ShardSpec& shard) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "shard-%04u-of-%04u", shard.index,
                shard.count);
  return buffer;
}

std::string hash_hex(std::uint64_t hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParamError("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Atomic rewrite: a reader (or a resume after a kill) sees either the old
/// manifest or the new one, never a torn write.
void write_text_atomic(const std::string& path, std::string_view text) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw std::runtime_error("cannot write '" + tmp + "'");
    }
  }
  fs::rename(tmp, path);
}

void write_manifest(const std::string& path, const ShardManifest& manifest) {
  write_text_atomic(path, manifest_to_json(manifest) + "\n");
}

/// Value text following `"key":` in our own deterministic manifest JSON.
std::string_view json_value_at(std::string_view json, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const auto pos = json.find(needle);
  if (pos == std::string_view::npos)
    throw ParamError("manifest missing key '" + std::string(key) + "'");
  std::string_view rest = json.substr(pos + needle.size());
  while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\n'))
    rest.remove_prefix(1);
  return rest;
}

std::uint64_t json_u64(std::string_view json, std::string_view key) {
  const std::string_view rest = json_value_at(json, key);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), value);
  if (ec != std::errc{} || ptr == rest.data())
    throw ParamError("manifest key '" + std::string(key) +
                     "' is not a number");
  return value;
}

std::string json_string(std::string_view json, std::string_view key) {
  std::string_view rest = json_value_at(json, key);
  if (rest.empty() || rest.front() != '"')
    throw ParamError("manifest key '" + std::string(key) +
                     "' is not a string");
  rest.remove_prefix(1);
  std::string out;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const char c = rest[i];
    if (c == '"') return out;
    if (c == '\\') {
      if (i + 1 >= rest.size()) break;
      const char escaped = rest[++i];
      if (escaped == '"' || escaped == '\\')
        out.push_back(escaped);
      else
        throw ParamError("manifest key '" + std::string(key) +
                         "' uses an unsupported escape");
    } else {
      out.push_back(c);
    }
  }
  throw ParamError("manifest key '" + std::string(key) + "' is unterminated");
}

}  // namespace

ShardSpec parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
    throw ParamError("--shard wants i/N, got '" + text + "'");
  ShardSpec shard;
  shard.index = static_cast<unsigned>(
      parse_counting_number(std::string_view(text).substr(0, slash),
                            "--shard index"));
  shard.count = static_cast<unsigned>(
      parse_counting_number(std::string_view(text).substr(slash + 1),
                            "--shard count"));
  if (shard.count == 0 || shard.index == 0 || shard.index > shard.count)
    throw ParamError("--shard " + text + " is out of range (want 1 <= i <= N)");
  return shard;
}

ShardRange shard_range(std::size_t total_trials, const ShardSpec& shard) {
  // floor(k*T/N) partition: contiguous, tiles [0, T), sizes differ by at
  // most one. 64-bit intermediate is ample for any realistic sweep.
  const auto cut = [&](std::size_t k) {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(k) * total_trials / shard.count);
  };
  return ShardRange{.begin = cut(shard.index - 1), .end = cut(shard.index)};
}

std::uint64_t campaign_hash(const Experiment& experiment,
                            const std::vector<TrialSpec>& trials) {
  io::Writer w;
  w.u32(kCampaignFormatVersion);
  w.str(experiment.name);
  w.u64(trials.size());
  for (const TrialSpec& trial : trials) {
    w.u64(trial.trial_index);
    w.u64(trial.seed);
    w.u64(trial.params.size());
    for (const auto& [key, value] : trial.params) {
      w.str(key);
      w.str(value);
    }
  }
  return io::fnv1a64(w.data());
}

std::string shard_jsonl_path(const std::string& directory,
                             const ShardSpec& shard) {
  return (fs::path(directory) / (shard_stem(shard) + ".jsonl")).string();
}

std::string shard_manifest_path(const std::string& directory,
                                const ShardSpec& shard) {
  return (fs::path(directory) / (shard_stem(shard) + ".manifest.json"))
      .string();
}

std::string manifest_to_json(const ShardManifest& manifest) {
  std::ostringstream out;
  out << "{\"campaign\":\"" << json_escape(manifest.experiment) << "\""
      << ",\"committed\":" << manifest.committed
      << ",\"format_version\":" << manifest.format_version
      << ",\"hash\":\"" << hash_hex(manifest.hash) << "\""
      << ",\"shard_count\":" << manifest.shard_count
      << ",\"shard_index\":" << manifest.shard_index
      << ",\"trial_begin\":" << manifest.trial_begin
      << ",\"trial_end\":" << manifest.trial_end << "}";
  return std::move(out).str();
}

ShardManifest manifest_from_json(std::string_view json) {
  ShardManifest manifest;
  manifest.experiment = json_string(json, "campaign");
  const std::string hex = json_string(json, "hash");
  std::uint64_t hash = 0;
  const auto [ptr, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), hash, 16);
  if (ec != std::errc{} || ptr != hex.data() + hex.size())
    throw ParamError("manifest key 'hash' is not a hex digest");
  manifest.hash = hash;
  manifest.format_version =
      static_cast<std::uint32_t>(json_u64(json, "format_version"));
  manifest.shard_index = static_cast<unsigned>(json_u64(json, "shard_index"));
  manifest.shard_count = static_cast<unsigned>(json_u64(json, "shard_count"));
  manifest.trial_begin = json_u64(json, "trial_begin");
  manifest.trial_end = json_u64(json, "trial_end");
  manifest.committed = json_u64(json, "committed");
  if (manifest.shard_count == 0 || manifest.shard_index == 0 ||
      manifest.shard_index > manifest.shard_count ||
      manifest.trial_end < manifest.trial_begin ||
      manifest.committed > manifest.trial_end - manifest.trial_begin)
    throw ParamError("manifest is internally inconsistent");
  return manifest;
}

CampaignShardResult run_campaign_shard(const Experiment& experiment,
                                       const std::vector<TrialSpec>& trials,
                                       const CampaignShardOptions& options) {
  const ShardRange range = shard_range(trials.size(), options.shard);
  const std::uint64_t hash = campaign_hash(experiment, trials);
  const std::string data_path =
      shard_jsonl_path(options.directory, options.shard);
  const std::string manifest_path =
      shard_manifest_path(options.directory, options.shard);
  fs::create_directories(options.directory);

  ShardManifest manifest{.experiment = experiment.name,
                         .hash = hash,
                         .shard_index = options.shard.index,
                         .shard_count = options.shard.count,
                         .trial_begin = range.begin,
                         .trial_end = range.end,
                         .committed = 0};

  std::size_t watermark = 0;
  if (options.resume && fs::exists(manifest_path)) {
    const ShardManifest existing =
        manifest_from_json(read_file(manifest_path));
    if (existing.hash != hash)
      throw ParamError("cannot resume " + shard_stem(options.shard) +
                       ": manifest hash " + hash_hex(existing.hash) +
                       " belongs to a different campaign than " +
                       hash_hex(hash) +
                       " (experiment or sweep arguments changed?)");
    if (existing.format_version != kCampaignFormatVersion)
      throw ParamError("cannot resume " + shard_stem(options.shard) +
                       ": manifest format version " +
                       std::to_string(existing.format_version) +
                       " != " + std::to_string(kCampaignFormatVersion));
    if (existing.shard_index != options.shard.index ||
        existing.shard_count != options.shard.count ||
        existing.trial_begin != range.begin || existing.trial_end != range.end)
      throw ParamError("cannot resume " + shard_stem(options.shard) +
                       ": manifest shard coordinates do not match");
    watermark = existing.committed;
  }

  // Truncate the shard JSONL to the committed prefix: everything past the
  // watermark is a line the previous invocation appended but never
  // manifested (killed between flush and rename) — rerun it.
  std::string prefix;
  if (watermark > 0) {
    const std::string existing_data = read_file(data_path);
    std::size_t pos = 0;
    for (std::size_t line = 0; line < watermark; ++line) {
      pos = existing_data.find('\n', pos);
      if (pos == std::string::npos)
        throw ParamError("shard data '" + data_path + "' has fewer lines " +
                         "than its manifest watermark " +
                         std::to_string(watermark));
      ++pos;
    }
    prefix = existing_data.substr(0, pos);
  }
  write_text_atomic(data_path, prefix);
  manifest.committed = watermark;
  write_manifest(manifest_path, manifest);

  // This invocation's slice of the shard: from the watermark to the range
  // end, optionally capped to simulate a kill between commits.
  const std::size_t first = range.begin + watermark;
  std::size_t count = range.end - first;
  if (options.stop_after != 0 && options.stop_after < count)
    count = options.stop_after;

  std::ofstream out(data_path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot append to '" + data_path + "'");

  // Commit sink for the runner's result ring: workers encode lines, the
  // runner retires them in trial order and hands us contiguous batches
  // (runner.h ResultStream). One flush + one atomic manifest rewrite per
  // batch; positions are run-local (the work slice starts at the
  // watermark), so committed = watermark + first + count.
  class ShardCommitter final : public ResultStream {
   public:
    ShardCommitter(std::ofstream& data, std::string path,
                   ShardManifest& manifest, std::string manifest_path,
                   std::size_t watermark)
        : out_(data),
          data_path_(std::move(path)),
          manifest_(manifest),
          manifest_path_(std::move(manifest_path)),
          watermark_(watermark) {}

    void commit(std::size_t batch_first, const std::string* lines,
                std::size_t count) override {
      for (std::size_t i = 0; i < count; ++i)
        out_.write(lines[i].data(),
                   static_cast<std::streamsize>(lines[i].size()));
      out_.flush();
      if (!out_)
        throw std::runtime_error("write to '" + data_path_ + "' failed");
      manifest_.committed = watermark_ + batch_first + count;
      write_manifest(manifest_path_, manifest_);
    }

   private:
    std::ofstream& out_;
    const std::string data_path_;
    ShardManifest& manifest_;
    const std::string manifest_path_;
    const std::size_t watermark_;
  };
  ShardCommitter committer(out, data_path, manifest, manifest_path, watermark);

  CampaignShardResult result;
  result.resumed_from = watermark;

  RunnerConfig runner = options.runner;
  runner.stream = &committer;
  const auto chained = options.runner.on_trial;
  if (!options.streaming) result.records.reserve(count);
  std::size_t failures = 0;
  runner.on_trial = [&](const TrialRecord& record) {
    if (!record.ok) ++failures;
    if (!options.streaming) result.records.push_back(record);
    if (chained) chained(record);
  };
  run_trials(experiment, std::span(trials).subspan(first, count), runner,
             &result.setup_stats);
  result.failures = failures;

  // Every line passed through the committer in order, so the manifest on
  // disk already reads watermark + count.
  manifest.committed = watermark + count;
  result.manifest = manifest;
  return result;
}

MergeResult merge_campaign(const std::string& directory, std::ostream& out) {
  if (!fs::is_directory(directory))
    throw ParamError("campaign directory '" + directory + "' does not exist");
  std::vector<ShardManifest> manifests;
  for (const auto& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".manifest.json") == 0)
      manifests.push_back(manifest_from_json(read_file(entry.path().string())));
  }
  if (manifests.empty())
    throw ParamError("no shard manifests in '" + directory + "'");
  std::sort(manifests.begin(), manifests.end(),
            [](const ShardManifest& a, const ShardManifest& b) {
              return a.shard_index < b.shard_index;
            });

  const ShardManifest& head = manifests.front();
  if (manifests.size() != head.shard_count)
    throw ParamError("campaign wants " + std::to_string(head.shard_count) +
                     " shards but '" + directory + "' holds " +
                     std::to_string(manifests.size()) + " manifests");
  std::size_t expected_begin = 0;
  for (std::size_t i = 0; i < manifests.size(); ++i) {
    const ShardManifest& m = manifests[i];
    const std::string who =
        shard_stem(ShardSpec{.index = m.shard_index, .count = m.shard_count});
    if (m.shard_index != i + 1)
      throw ParamError("shard index " + std::to_string(i + 1) +
                       " is missing from '" + directory + "'");
    if (m.hash != head.hash || m.shard_count != head.shard_count ||
        m.experiment != head.experiment ||
        m.format_version != head.format_version)
      throw ParamError(who + " belongs to a different campaign than " +
                       shard_stem(ShardSpec{.index = 1,
                                            .count = head.shard_count}));
    if (m.trial_begin != expected_begin)
      throw ParamError(who + " starts at trial " +
                       std::to_string(m.trial_begin) + ", expected " +
                       std::to_string(expected_begin) +
                       " (shard ranges do not tile)");
    expected_begin = m.trial_end;
    if (!m.complete())
      throw ParamError(who + " is incomplete: " +
                       std::to_string(m.committed) + " of " +
                       std::to_string(m.trial_end - m.trial_begin) +
                       " trials committed (resume it first)");
  }

  MergeResult result{.hash = head.hash,
                     .shard_count = head.shard_count,
                     .trials = expected_begin};
  for (const ShardManifest& m : manifests) {
    const ShardSpec spec{.index = m.shard_index, .count = m.shard_count};
    const std::string path = shard_jsonl_path(directory, spec);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ParamError("shard data '" + path + "' is missing");
    std::string line;
    std::size_t lines = 0;
    while (lines < m.committed && std::getline(in, line)) {
      out << line << '\n';
      ++lines;
    }
    if (lines < m.committed)
      throw ParamError("shard data '" + path + "' has fewer lines than its " +
                       "manifest watermark " + std::to_string(m.committed));
  }
  if (!out) throw std::runtime_error("merge output write failed");
  return result;
}

}  // namespace meecc::runtime
