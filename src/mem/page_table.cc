#include "mem/page_table.h"

#include "common/check.h"

namespace meecc::mem {

void VirtualAddressSpace::map_page(VirtAddr page, PhysAddr frame_base) {
  MEECC_CHECK(page.page_offset() == 0);
  MEECC_CHECK(frame_base.page_offset() == 0);
  MEECC_CHECK_MSG(find(page.page_number()) == nullptr,
                  "virtual page 0x" << std::hex << page.raw
                                    << " is already mapped");
  insert(page.page_number(), frame_base.page_number());
}

void VirtualAddressSpace::insert(std::uint64_t vpn, std::uint64_t pfn) {
  ++pages_;
  auto next = runs_.begin() + (run_after(vpn) - runs_.cbegin());
  if (next != runs_.begin()) {
    Run& prev = *std::prev(next);
    if (prev.first_vpn + prev.pfns.size() == vpn) {
      prev.pfns.push_back(pfn);
      return;
    }
  }
  runs_.insert(next, Run{vpn, {pfn}});
}

PhysAddr VirtualAddressSpace::translate(VirtAddr addr) const {
  const auto result = try_translate(addr);
  MEECC_CHECK_MSG(result.has_value(),
                  "unmapped virtual address 0x" << std::hex << addr.raw);
  return *result;
}

std::optional<PhysAddr> VirtualAddressSpace::try_translate(
    VirtAddr addr) const {
  const std::uint64_t* pfn = find(addr.page_number());
  if (pfn == nullptr) return std::nullopt;
  return PhysAddr{*pfn * kPageSize + addr.page_offset()};
}

bool VirtualAddressSpace::is_mapped(VirtAddr addr) const {
  return find(addr.page_number()) != nullptr;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
VirtualAddressSpace::sorted_pages() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pages;
  pages.reserve(pages_);
  for (const Run& run : runs_)
    for (std::size_t i = 0; i < run.pfns.size(); ++i)
      pages.emplace_back(run.first_vpn + i, run.pfns[i]);
  return pages;
}

void VirtualAddressSpace::import_pages(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& pages) {
  runs_.clear();
  pages_ = 0;
  for (const auto& [vpn, pfn] : pages)
    if (find(vpn) == nullptr) insert(vpn, pfn);
}

}  // namespace meecc::mem
