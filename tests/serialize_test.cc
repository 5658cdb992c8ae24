// Snapshot wire-format battery: primitive codec round-trips, one distinct
// frame status per corruption mode, canonical-bytes stability, and the
// load-bearing property behind the on-disk setup store — a decoded
// snapshot's fork replays the donor's golden trace byte for byte, and
// count-prefixed fields fail the decode (not the allocator) when a corrupted
// count could not fit in the payload. The nosimd CI stage reruns this suite
// with MEECC_NO_SIMD=1.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "channel/covert_channel.h"
#include "channel/testbed.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/pad_cache.h"
#include "obs/counters.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "sim/snapshot_io.h"
#include "sim/system.h"

namespace meecc {
namespace {

// ---------------------------------------------------------------------------
// Primitive codec.

TEST(BytesCodec, PrimitivesRoundTripAndUnderflowThrows) {
  io::Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.015625);
  w.str("covert");
  w.str("");  // empty string is representable, not special-cased

  io::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -0.015625);
  EXPECT_EQ(r.str(), "covert");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
  EXPECT_THROW(r.u8(), io::DecodeError);

  io::Reader trailing(w.data());
  trailing.u8();
  EXPECT_THROW(trailing.expect_done(), io::DecodeError);
}

TEST(BytesCodec, EncodingIsLittleEndianAndLengthPrefixed) {
  io::Writer w;
  w.u32(0x01020304u);
  const std::string& bytes = w.data();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

// Every corruption mode must surface as its own status — the setup store
// and the snapshot loader report them distinctly, and all of them mean
// "rebuild", never "crash" and never "use anyway".
TEST(BytesCodec, FrameReportsOneDistinctStatusPerCorruptionMode) {
  constexpr std::uint64_t kMagic = 0x1122334455667788ULL;
  constexpr std::uint32_t kVersion = 3;
  constexpr std::uint64_t kConfig = 0xfeedfacecafebeefULL;
  const std::string framed =
      io::write_frame(kMagic, kVersion, kConfig, "payload-bytes");

  const auto status = [&](const std::string& bytes) {
    return io::read_frame(bytes, kMagic, kVersion, kConfig).status;
  };

  EXPECT_EQ(status(framed), io::FrameStatus::kOk);
  EXPECT_EQ(io::read_frame(framed, kMagic, kVersion, kConfig).payload,
            "payload-bytes");

  EXPECT_EQ(status(framed.substr(0, framed.size() - 1)),
            io::FrameStatus::kTruncated);
  EXPECT_EQ(status(framed.substr(0, 10)), io::FrameStatus::kTruncated);
  EXPECT_EQ(status(""), io::FrameStatus::kTruncated);

  std::string bad_magic = framed;
  bad_magic[0] ^= 0x01;
  EXPECT_EQ(status(bad_magic), io::FrameStatus::kBadMagic);

  std::string bad_version = framed;
  bad_version[8] ^= 0x01;  // version field sits after the 8-byte magic
  EXPECT_EQ(status(bad_version), io::FrameStatus::kBadVersion);

  std::string bad_payload = framed;
  bad_payload[28] ^= 0x01;  // first payload byte (28-byte header)
  EXPECT_EQ(status(bad_payload), io::FrameStatus::kBadChecksum);

  std::string bad_checksum = framed;
  bad_checksum.back() ^= 0x01;
  EXPECT_EQ(status(bad_checksum), io::FrameStatus::kBadChecksum);

  EXPECT_EQ(io::read_frame(framed, kMagic, kVersion, kConfig + 1).status,
            io::FrameStatus::kConfigMismatch);
  // nullopt skips the config comparison but still returns the stored hash.
  const io::FrameView any = io::read_frame(framed, kMagic, kVersion, {});
  EXPECT_EQ(any.status, io::FrameStatus::kOk);
  EXPECT_EQ(any.config_hash, kConfig);
}

// ---------------------------------------------------------------------------
// RNG state.

TEST(RngSerialization, RoundTripsMidstreamIncludingGaussianCache) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.next_u64();
  // Box–Muller produces deviates in pairs; capture with one banked so the
  // cached second deviate must survive the wire.
  rng.next_gaussian();

  io::Writer w;
  encode_rng(w, rng);
  io::Reader r(w.data());
  Rng copy = decode_rng(r);
  r.expect_done();

  EXPECT_EQ(copy.next_gaussian(), rng.next_gaussian());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(copy.next_u64(), rng.next_u64());
  EXPECT_EQ(copy.next_gaussian(), rng.next_gaussian());
}

// ---------------------------------------------------------------------------
// System-level snapshot file.

TEST(SnapshotFile, RoundTripsThroughFrameAndRejectsForeignConfig) {
  sim::SystemConfig config;
  config.seed = 9;
  sim::System donor(config);
  for (int i = 0; i < 3; ++i) donor.fork_rng();
  const sim::SystemSnapshot snap = donor.snapshot();

  sim::System shape(config);
  const std::string bytes = sim::serialize_snapshot(shape, snap, 77);
  // Canonical bytes: a second encode of the same state is identical.
  EXPECT_EQ(sim::serialize_snapshot(shape, snap, 77), bytes);

  sim::SnapshotReadResult loaded = sim::deserialize_snapshot(shape, bytes, 77);
  ASSERT_EQ(loaded.status, io::FrameStatus::kOk);
  ASSERT_NE(loaded.snapshot, nullptr);
  // Decode→re-encode is the identity on the wire: no lossy field survives
  // unnoticed.
  EXPECT_EQ(sim::serialize_snapshot(shape, *loaded.snapshot, 77), bytes);

  // The decoded snapshot forks a machine whose RNG streams replay the
  // donor's exactly.
  auto from_memory = sim::System::fork(config, snap);
  auto from_disk = sim::System::fork(config, *loaded.snapshot);
  for (int stream = 0; stream < 4; ++stream) {
    Rng a = from_memory->fork_rng();
    Rng b = from_disk->fork_rng();
    for (int draw = 0; draw < 8; ++draw) EXPECT_EQ(a.next_u64(), b.next_u64());
  }

  EXPECT_EQ(sim::deserialize_snapshot(shape, bytes, 78).status,
            io::FrameStatus::kConfigMismatch);
  EXPECT_EQ(sim::deserialize_snapshot(shape, bytes.substr(0, 40), 77).status,
            io::FrameStatus::kTruncated);
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x01;
  EXPECT_EQ(sim::deserialize_snapshot(shape, corrupted, 77).status,
            io::FrameStatus::kBadChecksum);
}

// ---------------------------------------------------------------------------
// TestBed snapshot round trip: the golden-trace property.

std::vector<std::string> to_jsonl(const std::vector<obs::TraceEvent>& events) {
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const obs::TraceEvent& event : events)
    lines.push_back(obs::JsonlTraceSink::to_json_line(event));
  return lines;
}

struct EncodedWarmBed {
  std::string bytes;                   ///< wire form of the bed after setup
  channel::ChannelSetup setup;         ///< discovered channel artifacts
  channel::TestBedSnapshot snapshot;   ///< in-memory reference
};

/// Quickstart-style donor at the golden seed: full channel setup, live
/// snapshot, encode. Runs under a detached scope so the setup phase cannot
/// perturb the measured forks.
EncodedWarmBed encode_warm_bed(const channel::TestBedConfig& config) {
  obs::TrialScope shield(nullptr);
  channel::TestBed bed(config);
  channel::ChannelSetup setup =
      channel::setup_covert_channel(bed, channel::ChannelConfig{});
  channel::TestBedSnapshot snap = bed.snapshot();
  io::Writer w;
  sim::System shape(config.system);
  channel::encode_testbed_snapshot(w, shape, snap);
  return EncodedWarmBed{.bytes = w.take(),
                        .setup = std::move(setup),
                        .snapshot = std::move(snap)};
}

/// Measure-phase trace of a fork of `snap`: the deterministic "golden"
/// observable every decoded snapshot must reproduce byte for byte.
std::vector<std::string> fork_trace(const channel::TestBedConfig& config,
                                    const channel::TestBedSnapshot& snap,
                                    const channel::ChannelSetup& setup,
                                    channel::ChannelResult* result = nullptr,
                                    obs::CounterSnapshot* counters = nullptr) {
  channel::TestBed bed(config, snap);
  obs::CollectingSink sink;
  bed.system().hub().set_trace_sink(&sink);
  const channel::ChannelResult r = channel::transfer_covert_channel(
      bed, channel::ChannelConfig{}, channel::alternating_bits(12), setup);
  bed.system().hub().set_trace_sink(nullptr);
  if (result != nullptr) *result = r;
  if (counters != nullptr) *counters = bed.system().hub().registry().snapshot();
  return to_jsonl(sink.events());
}

// The whole point of the setup store: encode → decode → fork must be
// observationally identical to forking the in-memory snapshot, down to the
// last trace byte.
TEST(SerializedFork, DecodedForkReplaysGoldenTraceByteForByte) {
  const channel::TestBedConfig config = channel::default_testbed_config(1);
  const EncodedWarmBed donor = encode_warm_bed(config);

  sim::System shape(config.system);
  io::Reader r(donor.bytes);
  const channel::TestBedSnapshot decoded =
      channel::decode_testbed_snapshot(r, shape);
  r.expect_done();

  channel::ChannelResult reference_result, decoded_result;
  obs::CounterSnapshot reference_counters, decoded_counters;
  const auto reference = fork_trace(config, donor.snapshot, donor.setup,
                                    &reference_result, &reference_counters);
  const auto replayed = fork_trace(config, decoded, donor.setup,
                                   &decoded_result, &decoded_counters);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(replayed, reference);
  EXPECT_EQ(decoded_counters, reference_counters);
  EXPECT_EQ(decoded_result.received, reference_result.received);
  EXPECT_EQ(decoded_result.probe_times, reference_result.probe_times);
  EXPECT_EQ(decoded_result.transfer_cycles, reference_result.transfer_cycles);

  // Re-encoding the decoded snapshot reproduces the wire bytes exactly.
  io::Writer again;
  channel::encode_testbed_snapshot(again, shape, decoded);
  EXPECT_EQ(again.data(), donor.bytes);
}

// ---------------------------------------------------------------------------
// Count-prefixed fields: a count inflated to 2^40 in an otherwise valid
// payload must raise DecodeError — the one failure the setup cache heals —
// before anything is sized from it.

constexpr std::uint64_t kInflatedCount = 1ULL << 40;

void overwrite_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  io::Writer w;
  w.u64(v);
  bytes.replace(offset, 8, w.data());
}

TEST(DecoderCounts, PadCacheRejectsAForeignSlotCount) {
  crypto::PadCache<std::uint64_t> donor;
  donor.insert(0x40, 1, 0x1234);
  io::Writer w;
  donor.encode_state(w);
  std::string bytes = w.take();
  {
    crypto::PadCache<std::uint64_t> decoded;
    io::Reader r(bytes);
    decoded.decode_state(r);
    r.expect_done();
  }
  overwrite_u64(bytes, 0, kInflatedCount);  // the slot count leads
  crypto::PadCache<std::uint64_t> decoded;
  io::Reader r(bytes);
  EXPECT_THROW(decoded.decode_state(r), io::DecodeError);
}

TEST(DecoderCounts, InflatedCountsInABedSnapshotThrowDecodeError) {
  const channel::TestBedConfig config = channel::default_testbed_config(1);
  const EncodedWarmBed donor = encode_warm_bed(config);
  sim::System shape(config.system);
  const auto decode = [&](const std::string& bytes) {
    io::Reader r(bytes);
    (void)channel::decode_testbed_snapshot(r, shape);
  };
  const auto u64_at = [&](std::size_t offset) {
    io::Reader r(std::string_view(donor.bytes).substr(offset, 8));
    return r.u64();
  };

  // The DRAM image's line count leads the machine snapshot.
  ASSERT_NE(donor.snapshot.system.memory, nullptr);
  ASSERT_EQ(u64_at(0), donor.snapshot.system.memory->size());
  std::string memory = donor.bytes;
  overwrite_u64(memory, 0, kInflatedCount);
  EXPECT_THROW(decode(memory), io::DecodeError);

  // The first actor's page count follows the machine snapshot, the actor's
  // clock and its RNG state.
  io::Writer system, rng;
  sim::encode_snapshot(system, shape, donor.snapshot.system);
  encode_rng(rng, donor.snapshot.actors[0].rng);
  std::string pages = donor.bytes;
  const std::size_t page_count_at = system.size() + 8 + rng.size();
  ASSERT_GT(pages.size(), page_count_at + 8);
  ASSERT_EQ(u64_at(page_count_at),
            donor.snapshot.actors[0].vas.sorted_pages().size());
  overwrite_u64(pages, page_count_at, kInflatedCount);
  EXPECT_THROW(decode(pages), io::DecodeError);

  // The first cache image (core 0's L1) follows the DRAM image, the DRAM
  // RNG and access count, and the core count; its row count follows a
  // one-byte key flag.
  io::Writer dram_rng;
  encode_rng(dram_rng, donor.snapshot.system.dram.rng);
  const std::size_t rows_at = 8 + donor.snapshot.system.memory->size() * 72 +
                              dram_rng.size() + 8 + 8 + 1;
  ASSERT_EQ(u64_at(rows_at), donor.snapshot.system.hierarchy.l1[0]->rows.size());
  std::string rows = donor.bytes;
  overwrite_u64(rows, rows_at, kInflatedCount);
  EXPECT_THROW(decode(rows), io::DecodeError);
}

// A row count that fits the remaining bytes but exceeds the cache's set
// count is rejected too, as are unsorted rows.
TEST(DecoderCounts, CacheImageRowsBeyondTheGeometryThrowDecodeError) {
  const cache::Geometry geometry{.size_bytes = 4 * 2 * 64, .ways = 2};  // 4 sets
  cache::SetAssocCache donor(geometry, cache::ReplacementKind::kTreePlru,
                             Rng(1));
  for (std::uint64_t line = 0; line < 8; ++line) donor.access(PhysAddr{line * 64});
  const cache::CacheImagePtr image = donor.capture();
  ASSERT_EQ(image->rows.size(), 4u);
  io::Writer w;
  cache::encode_cache_image(w, *image);
  const std::string bytes = w.take();
  const auto decode = [&](const std::string& b) {
    io::Reader r(b);
    (void)donor.decode_image(r);
  };
  decode(bytes);  // the untouched encoding decodes

  std::string inflated = bytes;
  overwrite_u64(inflated, 1, 5);  // after the key flag; 5 > 4 sets
  EXPECT_THROW(decode(inflated), io::DecodeError);
  overwrite_u64(inflated, 1, kInflatedCount);
  EXPECT_THROW(decode(inflated), io::DecodeError);

  std::string unsorted = bytes;
  unsorted[1 + 8] = 3;  // first row claims set 3, ahead of set 1
  EXPECT_THROW(decode(unsorted), io::DecodeError);
}

}  // namespace
}  // namespace meecc
