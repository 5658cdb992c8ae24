#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mem/address_map.h"
#include "mem/dram.h"
#include "mem/frame_allocator.h"
#include "mem/page_table.h"
#include "mem/physical_memory.h"

namespace meecc::mem {
namespace {

AddressMapConfig small_map_config() {
  return AddressMapConfig{.general_size = 8ull << 20, .epc_size = 4ull << 20};
}

TEST(AddressMap, RegionsAreContiguousAndDisjoint) {
  const AddressMap map(small_map_config());
  EXPECT_EQ(map.general().base.raw, 0u);
  EXPECT_EQ(map.protected_data().base.raw, map.general().end().raw);
  EXPECT_EQ(map.mee_metadata().base.raw, map.protected_data().end().raw);
}

TEST(AddressMap, ClassifyEachRegion) {
  const AddressMap map(small_map_config());
  EXPECT_EQ(map.classify(PhysAddr{0}), RegionKind::kGeneral);
  EXPECT_EQ(map.classify(map.protected_data().base), RegionKind::kProtectedData);
  EXPECT_EQ(map.classify(map.protected_data().end() - 1),
            RegionKind::kProtectedData);
  EXPECT_EQ(map.classify(map.mee_metadata().base), RegionKind::kMeeMetadata);
  EXPECT_EQ(map.classify(map.dram_end()), RegionKind::kUnmapped);
}

TEST(AddressMap, MetadataSizeCoversTree) {
  // 4 MB EPC: 8192 chunks ⇒ versions+tags = 8192*128 B = 1 MB;
  // L0 = 1024 node lines, L1 = 128, L2 = 16, each with a spare slot
  // ⇒ + (1024+128+16)*128 B.
  EXPECT_EQ(metadata_bytes_for_epc(4ull << 20),
            (8192ull * 128) + (1024 + 128 + 16) * 128);
}

TEST(AddressMap, FrameIndexRoundTrips) {
  const AddressMap map(small_map_config());
  for (const std::uint64_t i :
       std::vector<std::uint64_t>{0, 1, 17, map.epc_frame_count() - 1}) {
    const PhysAddr base = map.epc_frame_base(i);
    EXPECT_EQ(map.epc_frame_index(base), i);
    EXPECT_EQ(map.epc_frame_index(base + kPageSize - 1), i);
  }
}

TEST(AddressMap, ChunkIndexWithinProtectedRegion) {
  const AddressMap map(small_map_config());
  const PhysAddr base = map.protected_data().base;
  EXPECT_EQ(map.chunk_index(base), 0u);
  EXPECT_EQ(map.chunk_index(base + kChunkSize), 1u);
  EXPECT_EQ(map.chunk_index(base + kChunkSize - 1), 0u);
  EXPECT_EQ(map.chunk_index(base + kPageSize), kChunksPerPage);
}

TEST(AddressMap, RejectsUnalignedSizes) {
  AddressMapConfig config;
  config.epc_size = 4096 + 1;
  EXPECT_THROW(AddressMap{config}, CheckFailure);
}

TEST(PhysicalMemory, ZeroFilledOnFirstTouch) {
  PhysicalMemory memory;
  const Line line = memory.read_line(PhysAddr{0x1000});
  for (auto b : line) EXPECT_EQ(b, 0);
  EXPECT_EQ(memory.resident_lines(), 0u);
}

TEST(PhysicalMemory, WriteReadRoundTrip) {
  PhysicalMemory memory;
  Line line{};
  for (std::size_t i = 0; i < line.size(); ++i)
    line[i] = static_cast<std::uint8_t>(i * 3);
  memory.write_line(PhysAddr{0x40}, line);
  EXPECT_EQ(memory.read_line(PhysAddr{0x40}), line);
  EXPECT_EQ(memory.read_line(PhysAddr{0x7f}), line);  // same line
  EXPECT_EQ(memory.resident_lines(), 1u);
}

TEST(PhysicalMemory, U64Accessors) {
  PhysicalMemory memory;
  memory.write_u64(PhysAddr{0x108}, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(memory.read_u64(PhysAddr{0x108}), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(memory.read_u64(PhysAddr{0x100}), 0u);  // neighbours untouched
}

TEST(PhysicalMemory, CrossLineByteAccessRejected) {
  PhysicalMemory memory;
  EXPECT_THROW(memory.read_u64(PhysAddr{0x3c + 0x40}), CheckFailure);
}

TEST(Dram, LatencyStaysNearBase) {
  DramConfig config;
  Dram dram(config, Rng(1));
  RunningStats stats;
  for (Cycles t = 0; t < 3'000'000; t += 3000)
    stats.add(static_cast<double>(dram.access_latency(t)));
  EXPECT_NEAR(stats.mean(), static_cast<double>(config.base_latency), 18.0);
  EXPECT_GT(stats.stddev(), 5.0);
  EXPECT_GT(stats.max(), stats.mean() + 50.0);  // spikes exist
}

TEST(Dram, DriftIsDeterministicSmoothAndBounded) {
  DramConfig config;
  const Dram dram(config, Rng(2));
  const Dram dram2(config, Rng(99));
  double prev = dram.drift_at(0);
  for (Cycles t = 0; t < 40'000'000; t += 10'000) {
    const double d = dram.drift_at(t);
    EXPECT_EQ(d, dram2.drift_at(t));  // independent of RNG
    EXPECT_LE(std::abs(d),
              config.drift_amplitude + config.fast_wander_amplitude + 1e-9);
    EXPECT_LT(std::abs(d - prev), 12.0);  // smooth at 10k-cycle scale
    prev = d;
  }
}

TEST(Dram, DriftActuallyWanders) {
  const Dram dram(DramConfig{}, Rng(3));
  double lo = 0, hi = 0;
  for (Cycles t = 0; t < 40'000'000; t += 10'000) {
    lo = std::min(lo, dram.drift_at(t));
    hi = std::max(hi, dram.drift_at(t));
  }
  EXPECT_LT(lo, -20.0);
  EXPECT_GT(hi, 20.0);
}

TEST(PageTable, MapTranslateRoundTrip) {
  VirtualAddressSpace vas;
  vas.map_page(VirtAddr{0x7000'0000'0000}, PhysAddr{0x20'0000});
  const PhysAddr p = vas.translate(VirtAddr{0x7000'0000'0123});
  EXPECT_EQ(p.raw, 0x20'0123u);
  EXPECT_TRUE(vas.is_mapped(VirtAddr{0x7000'0000'0fff}));
  EXPECT_FALSE(vas.is_mapped(VirtAddr{0x7000'0000'1000}));
}

TEST(PageTable, UnmappedTranslateThrows) {
  VirtualAddressSpace vas;
  EXPECT_THROW(vas.translate(VirtAddr{0x1234'5000}), CheckFailure);
  EXPECT_EQ(vas.try_translate(VirtAddr{0x1234'5000}), std::nullopt);
}

TEST(PageTable, DoubleMapRejected) {
  VirtualAddressSpace vas;
  vas.map_page(VirtAddr{0x1000}, PhysAddr{0x2000});
  EXPECT_THROW(vas.map_page(VirtAddr{0x1000}, PhysAddr{0x3000}), CheckFailure);
}

TEST(PageTable, UnalignedMapRejected) {
  VirtualAddressSpace vas;
  EXPECT_THROW(vas.map_page(VirtAddr{0x1001}, PhysAddr{0x2000}), CheckFailure);
  EXPECT_THROW(vas.map_page(VirtAddr{0x1000}, PhysAddr{0x2004}), CheckFailure);
}

TEST(PageTable, PagesMappedInAnyOrderTranslateAndExportSorted) {
  // Out-of-order mapping leaves more, shorter runs than ascending mapping,
  // but every page still keeps its own frame.
  VirtualAddressSpace vas;
  Rng rng(3);
  std::vector<std::uint64_t> vpns;
  for (std::uint64_t v = 0; v < 40; ++v) vpns.push_back(0x10 + v);
  for (std::uint64_t v = 0; v < 10; ++v) vpns.push_back(0x900 + 2 * v);
  for (std::size_t i = vpns.size(); i > 1; --i)
    std::swap(vpns[i - 1], vpns[rng.next_below(i)]);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
  for (const std::uint64_t vpn : vpns) {
    const std::uint64_t pfn = rng.next_below(1 << 20);
    vas.map_page(VirtAddr{vpn * kPageSize}, PhysAddr{pfn * kPageSize});
    want.emplace_back(vpn, pfn);
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(vas.sorted_pages(), want);
  EXPECT_EQ(vas.mapped_pages(), want.size());
  for (const auto& [vpn, pfn] : want)
    EXPECT_EQ(vas.translate(VirtAddr{vpn * kPageSize + 9}).raw,
              pfn * kPageSize + 9);
  EXPECT_FALSE(vas.is_mapped(VirtAddr{0x0f * kPageSize}));
  EXPECT_FALSE(vas.is_mapped(VirtAddr{0x38 * kPageSize}));
  EXPECT_FALSE(vas.is_mapped(VirtAddr{0x901 * kPageSize}));
  EXPECT_THROW(vas.map_page(VirtAddr{0x20 * kPageSize}, PhysAddr{0}),
               CheckFailure);

  VirtualAddressSpace imported;
  imported.import_pages(want);
  EXPECT_EQ(imported.sorted_pages(), want);
  VirtualAddressSpace copy;
  copy.map_page(VirtAddr{0x5000 * kPageSize}, PhysAddr{0});
  copy = vas;
  EXPECT_EQ(copy.sorted_pages(), want);
}

TEST(EpcAllocator, ContiguousHandsOutSequentialFrames) {
  const AddressMap map(small_map_config());
  EpcAllocator alloc(map, EpcPlacement::kContiguous, Rng(1));
  PhysAddr prev = alloc.allocate_frame();
  EXPECT_EQ(prev.raw, map.protected_data().base.raw);
  for (int i = 0; i < 32; ++i) {
    const PhysAddr next = alloc.allocate_frame();
    EXPECT_EQ(next - prev, kPageSize);
    prev = next;
  }
}

TEST(EpcAllocator, RandomizedPermutesFrames) {
  const AddressMap map(small_map_config());
  EpcAllocator alloc(map, EpcPlacement::kRandomized, Rng(1));
  std::set<std::uint64_t> seen;
  bool sequential = true;
  PhysAddr prev{0};
  for (std::uint64_t i = 0; i < map.epc_frame_count(); ++i) {
    const PhysAddr f = alloc.allocate_frame();
    EXPECT_TRUE(map.protected_data().contains(f));
    EXPECT_EQ(f.page_offset(), 0u);
    EXPECT_TRUE(seen.insert(f.raw).second) << "duplicate frame";
    if (i > 0 && f - prev != kPageSize) sequential = false;
    prev = f;
  }
  EXPECT_FALSE(sequential);
  EXPECT_EQ(seen.size(), map.epc_frame_count());
}

TEST(EpcAllocator, ExhaustionThrows) {
  const AddressMap map(small_map_config());
  EpcAllocator alloc(map, EpcPlacement::kContiguous, Rng(1));
  for (std::uint64_t i = 0; i < map.epc_frame_count(); ++i)
    alloc.allocate_frame();
  EXPECT_EQ(alloc.frames_remaining(), 0u);
  EXPECT_THROW(alloc.allocate_frame(), CheckFailure);
}

TEST(GeneralAllocator, BumpsThroughRegion) {
  const AddressMap map(small_map_config());
  GeneralAllocator alloc(map);
  const PhysAddr a = alloc.allocate_frame();
  const PhysAddr b = alloc.allocate_frame();
  EXPECT_EQ(a.raw, 0u);
  EXPECT_EQ(b - a, kPageSize);
  EXPECT_EQ(alloc.frames_remaining(), (8ull << 20) / kPageSize - 2);
}

}  // namespace
}  // namespace meecc::mem
