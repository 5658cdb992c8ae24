// Per-process virtual address space with 4 KB pages.
//
// SGX v1 does not support hugepages inside enclaves (paper §3 challenge 3),
// so 4 KB is the only page size — attackers can control physical addresses
// only at 4 KB granularity, which is exactly the constraint the paper's
// candidate-set construction works around.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace meecc::mem {

/// The table is a few sorted runs of consecutive virtual pages, each with
/// its frames in a flat vector: an enclave or buffer mapped page by page
/// lands in one run, so a translation searches a handful of runs and
/// indexes one vector, and copying a table (a bed reset) copies a few
/// vectors.
class VirtualAddressSpace {
 public:
  /// Maps virtual page `vaddr.page_number()` to the frame holding `frame_base`.
  /// Both must be page-aligned. Remapping an existing page is an error.
  void map_page(VirtAddr page, PhysAddr frame_base);

  /// Translates; throws CheckFailure on an unmapped page (the simulator has
  /// no demand paging — all experiment memory is mapped up front).
  PhysAddr translate(VirtAddr addr) const;

  /// Translation that reports failure instead of throwing.
  std::optional<PhysAddr> try_translate(VirtAddr addr) const;

  bool is_mapped(VirtAddr addr) const;
  std::size_t mapped_pages() const { return pages_; }

  /// (vpn, pfn) pairs sorted by vpn — the canonical order the snapshot wire
  /// format needs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_pages() const;

  /// Replaces the table with exported pairs (snapshot decode). A repeated
  /// vpn keeps its first pfn.
  void import_pages(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& pages);

 private:
  /// Virtual pages first_vpn .. first_vpn + pfns.size() - 1.
  struct Run {
    std::uint64_t first_vpn = 0;
    std::vector<std::uint64_t> pfns;
  };

  /// The first run starting after `vpn`; only the one before it can hold
  /// `vpn`.
  std::vector<Run>::const_iterator run_after(std::uint64_t vpn) const {
    return std::upper_bound(
        runs_.begin(), runs_.end(), vpn,
        [](std::uint64_t v, const Run& run) { return v < run.first_vpn; });
  }

  /// The frame of `vpn`, or null when unmapped.
  const std::uint64_t* find(std::uint64_t vpn) const {
    const auto next = run_after(vpn);
    if (next == runs_.begin()) return nullptr;
    const Run& run = *std::prev(next);
    const std::uint64_t index = vpn - run.first_vpn;
    return index < run.pfns.size() ? &run.pfns[index] : nullptr;
  }

  /// Maps an unmapped `vpn`: extends the run that ends right before it, or
  /// starts a new run. Every caller maps pages in ascending order.
  void insert(std::uint64_t vpn, std::uint64_t pfn);

  std::vector<Run> runs_;  ///< ascending, disjoint
  std::size_t pages_ = 0;
};

}  // namespace meecc::mem
