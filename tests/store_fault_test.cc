// Fault injection for the on-disk setup store: every way an entry file can
// be wrong — truncated, flipped checksum byte, wrong format version,
// mismatched config hash, foreign key at the same content address — must
// surface as its own distinct Lookup status and fall back to a fresh
// build. A corrupt store may cost time; it must never crash a campaign and
// never hand back bytes that weren't verified end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "golden/setup_store_fixtures.h"
#include "runtime/experiment.h"
#include "runtime/runner.h"
#include "runtime/setup_cache.h"
#include "runtime/setup_store.h"

namespace meecc {
namespace {

namespace fs = std::filesystem;
using runtime::SetupStore;

/// Fresh scratch directory per test, removed on destruction.
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
  const fs::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

void plant(const SetupStore& store, const std::string& key,
           const std::string& bytes) {
  std::ofstream out(store.path_for(key), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(StoreFault, EachCorruptionModeReportsItsDistinctStatus) {
  ScratchDir dir("store_status");
  const SetupStore store(dir.str(), "fault-exp");
  const std::uint64_t config_hash = store.config_hash();
  const std::string key = "fault-exp|seed=7";

  std::set<SetupStore::Lookup> seen;
  for (const auto& fixture :
       testing::setup_store_fixtures(config_hash, key, "the-payload")) {
    plant(store, key, fixture.bytes);
    const SetupStore::LoadResult loaded = store.load(key);
    EXPECT_EQ(loaded.status, fixture.expected) << fixture.name;
    if (fixture.expected == SetupStore::Lookup::kHit) {
      ASSERT_TRUE(loaded.payload.has_value()) << fixture.name;
      EXPECT_EQ(*loaded.payload, "the-payload");
    } else {
      EXPECT_FALSE(loaded.payload.has_value()) << fixture.name;
    }
    seen.insert(fixture.expected);
  }
  // "Distinct error per mode" is the contract: the fixture set must cover
  // every status except kAbsent, with no two modes collapsing into one.
  EXPECT_EQ(seen.size(), 7u);

  fs::remove(store.path_for(key));
  EXPECT_EQ(store.load(key).status, SetupStore::Lookup::kAbsent);
}

TEST(StoreFault, StoreWritesAtomicallyAndRoundTrips) {
  ScratchDir dir("store_roundtrip");
  const SetupStore store(dir.str(), "roundtrip-exp");
  ASSERT_TRUE(store.store("key-a", "payload-one"));
  const SetupStore::LoadResult first = store.load("key-a");
  ASSERT_EQ(first.status, SetupStore::Lookup::kHit);
  EXPECT_EQ(*first.payload, "payload-one");

  // Rewrite under the same key replaces the entry in place.
  ASSERT_TRUE(store.store("key-a", "payload-two"));
  EXPECT_EQ(*store.load("key-a").payload, "payload-two");

  // The temp file used for atomicity never survives a completed store().
  for (const auto& entry : fs::directory_iterator(dir.path()))
    EXPECT_EQ(entry.path().extension(), ".setup")
        << "leftover " << entry.path();
}

// SetupCache with an attached store: every corruption mode must produce a
// fresh build, tallied under its distinct reject reason — and a valid
// entry must be used without running the builder.
TEST(StoreFault, CacheFallsBackToFreshBuildOnEveryCorruption) {
  ScratchDir dir("store_fallback");
  SetupStore store(dir.str(), "fault-exp");
  const std::uint64_t config_hash = store.config_hash();
  const std::string key = "fault-exp|seed=7";

  const auto encoder = [](const void* state) {
    io::Writer w;
    w.u64(*static_cast<const std::uint64_t*>(state));
    return w.take();
  };
  const auto decoder = [](std::string_view payload)
      -> std::shared_ptr<const void> {
    io::Reader r(payload);
    auto value = std::make_shared<std::uint64_t>(r.u64());
    r.expect_done();
    return value;
  };

  io::Writer good_payload;
  good_payload.u64(777);
  for (const auto& fixture :
       testing::setup_store_fixtures(config_hash, key, good_payload.data())) {
    runtime::SetupCache cache;  // fresh per fixture: no memory-tier hits
    cache.attach_store(&store);
    plant(store, key, fixture.bytes);

    int builds = 0;
    const auto result = cache.get_or_build(
        key,
        [&]() -> std::shared_ptr<const void> {
          ++builds;
          return std::make_shared<std::uint64_t>(999);
        },
        encoder, decoder);
    const std::uint64_t value =
        *static_cast<const std::uint64_t*>(result.get());

    if (fixture.expected == SetupStore::Lookup::kHit) {
      EXPECT_EQ(builds, 0) << fixture.name << ": silent rebuild of a hit";
      EXPECT_EQ(value, 777u) << fixture.name;
      EXPECT_EQ(cache.disk_hits(), 1u) << fixture.name;
      EXPECT_TRUE(cache.disk_rejects().empty()) << fixture.name;
    } else {
      EXPECT_EQ(builds, 1) << fixture.name << ": corrupt entry not rebuilt";
      EXPECT_EQ(value, 999u) << fixture.name << ": silent reuse of bad bytes";
      EXPECT_EQ(cache.builds(), 1u) << fixture.name;
      const auto rejects = cache.disk_rejects();
      const std::string reason(runtime::to_string(fixture.expected));
      ASSERT_EQ(rejects.size(), 1u) << fixture.name;
      EXPECT_EQ(rejects.begin()->first, reason) << fixture.name;
      EXPECT_EQ(rejects.begin()->second, 1u) << fixture.name;
      // The fallback build was written back: the store self-heals and the
      // next process gets a disk hit.
      EXPECT_EQ(store.load(key).status, SetupStore::Lookup::kHit)
          << fixture.name;
    }
  }
}

// An entry written under another snapshot format version lives at the
// same path (the address leaves the version out): it is reported as a
// config mismatch, rebuilt and overwritten in place, so the directory does
// not grow. Two experiments sharing the directory and a setup key still
// get a file each.
TEST(StoreFault, StaleFormatEntryIsRewrittenInPlace) {
  ScratchDir dir("store_stale");
  const std::string key = "shared|seed=3";
  SetupStore store(dir.str(), "exp-a");
  // The address is the key hashed with the experiment name alone — no
  // format version — so an older build wrote this key to the same path.
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.setup",
                static_cast<unsigned long long>(
                    io::fnv1a64(key, io::fnv1a64("exp-a"))));
  EXPECT_EQ(fs::path(store.path_for(key)).filename().string(), name);
  // What an older build left there: a valid frame under another config
  // hash (the hash folds in the snapshot format version).
  for (const auto& fixture :
       testing::setup_store_fixtures(store.config_hash(), key, "old bytes"))
    if (fixture.expected == SetupStore::Lookup::kConfigMismatch)
      plant(store, key, fixture.bytes);
  const auto file_count = [&dir] {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      (void)entry;
      ++n;
    }
    return n;
  };
  ASSERT_EQ(file_count(), 1u);

  runtime::SetupCache cache;
  cache.attach_store(&store);
  int builds = 0;
  (void)cache.get_or_build(
      key,
      [&]() -> std::shared_ptr<const void> {
        ++builds;
        return std::make_shared<std::uint64_t>(8);
      },
      [](const void* state) {
        io::Writer w;
        w.u64(*static_cast<const std::uint64_t*>(state));
        return w.take();
      },
      [](std::string_view payload) -> std::shared_ptr<const void> {
        io::Reader r(payload);
        return std::make_shared<std::uint64_t>(r.u64());
      });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.disk_rejects().count(std::string(runtime::to_string(
                SetupStore::Lookup::kConfigMismatch))),
            1u);
  EXPECT_EQ(file_count(), 1u);
  EXPECT_EQ(store.load(key).status, SetupStore::Lookup::kHit);

  const SetupStore other(dir.str(), "exp-b");
  EXPECT_NE(other.path_for(key), store.path_for(key));
}

// A frame that passes every store-level check but whose payload the
// experiment decoder rejects (written by incompatible code) is one more
// fall-back-to-build mode, tallied as "decode-error".
TEST(StoreFault, DecoderRejectionFallsBackToBuild) {
  ScratchDir dir("store_decode");
  SetupStore store(dir.str(), "fault-exp");
  const std::string key = "fault-exp|seed=9";
  ASSERT_TRUE(store.store(key, ""));  // valid frame, empty payload

  runtime::SetupCache cache;
  cache.attach_store(&store);
  int builds = 0;
  const auto result = cache.get_or_build(
      key,
      [&]() -> std::shared_ptr<const void> {
        ++builds;
        return std::make_shared<std::uint64_t>(5);
      },
      [](const void* state) {
        io::Writer w;
        w.u64(*static_cast<const std::uint64_t*>(state));
        return w.take();
      },
      [](std::string_view payload) -> std::shared_ptr<const void> {
        io::Reader r(payload);
        return std::make_shared<std::uint64_t>(r.u64());  // throws: no bytes
      });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*static_cast<const std::uint64_t*>(result.get()), 5u);
  EXPECT_EQ(cache.disk_hits(), 0u);
  const auto rejects = cache.disk_rejects();
  ASSERT_EQ(rejects.count("decode-error"), 1u);
  EXPECT_EQ(rejects.at("decode-error"), 1u);
}

// End to end through the runner: a sweep pointed at a poisoned store
// completes every trial (fresh builds), and having healed the store, a
// second sweep runs entirely on disk hits with identical results.
TEST(StoreFault, RunnerSurvivesPoisonedStoreThenHealsIt) {
  ScratchDir dir("store_runner");
  SetupStore store(dir.str(), "toy_store");

  std::atomic<int> builds{0};
  runtime::Experiment exp;
  exp.name = "toy_store";
  exp.setup_key = [](const runtime::TrialSpec& spec) {
    return "toy_store|seed=" + std::to_string(spec.seed);
  };
  exp.run = [&builds](const runtime::TrialSpec& spec) {
    const auto warm = runtime::memoized_setup<std::uint64_t>(
        "toy_store|seed=" + std::to_string(spec.seed),
        [&]() -> std::shared_ptr<const std::uint64_t> {
          builds.fetch_add(1);
          Rng rng(spec.seed);
          return std::make_shared<const std::uint64_t>(rng.next_u64());
        },
        [](const std::uint64_t& value) {
          io::Writer w;
          w.u64(value);
          return w.take();
        },
        [](std::string_view payload)
            -> std::shared_ptr<const std::uint64_t> {
          io::Reader r(payload);
          auto value = std::make_shared<std::uint64_t>(r.u64());
          r.expect_done();
          return value;
        });
    runtime::TrialResult result;
    result.metric("warm_mod", static_cast<double>(*warm % 100003));
    return result;
  };

  std::vector<runtime::TrialSpec> trials;
  for (std::size_t i = 0; i < 4; ++i)
    trials.push_back(runtime::TrialSpec{.experiment = "toy_store",
                                        .trial_index = i,
                                        .seed = 100 + i % 2,
                                        .params = {}});

  // Poison both keys with garbage the frame reader must reject.
  plant(store, "toy_store|seed=100", "not a frame at all");
  plant(store, "toy_store|seed=101", std::string(200, '\xff'));

  runtime::RunnerConfig config;
  config.jobs = 2;
  config.setup_store = &store;
  runtime::SetupStats poisoned_stats;
  const auto poisoned =
      runtime::run_trials(exp, trials, config, &poisoned_stats);
  for (const auto& record : poisoned) EXPECT_TRUE(record.ok) << record.error;
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(poisoned_stats.builds, 2u);
  EXPECT_EQ(poisoned_stats.disk_hits, 0u);

  // Second "process": a fresh runner pass loads the healed entries.
  builds = 0;
  runtime::SetupStats healed_stats;
  const auto healed = runtime::run_trials(exp, trials, config, &healed_stats);
  EXPECT_EQ(builds.load(), 0);
  EXPECT_EQ(healed_stats.builds, 0u);
  EXPECT_EQ(healed_stats.disk_hits, 2u);
  EXPECT_EQ(healed_stats.memory_hits, 2u);

  ASSERT_EQ(poisoned.size(), healed.size());
  for (std::size_t i = 0; i < poisoned.size(); ++i)
    EXPECT_EQ(poisoned[i].result.metrics, healed[i].result.metrics)
        << "trial " << i;
}

}  // namespace
}  // namespace meecc
