#include "oskernel/address_space.h"

#include <algorithm>

#include "common/check.h"

namespace hpcos::os {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kMajor:
      return "major";
    case FaultKind::kHugeTlb:
      return "hugetlb";
  }
  return "?";
}

FaultKind classify_fault(hw::PageSize page, hw::PageSize base_page) {
  return page != base_page ? FaultKind::kHugeTlb : FaultKind::kMajor;
}

AddressSpace::AddressSpace(std::uint64_t base) : next_addr_(base) {}

std::uint64_t AddressSpace::map(std::uint64_t length, hw::PageSize page_size,
                                PagingPolicy policy) {
  HPCOS_CHECK(length > 0);
  const std::uint64_t page = hw::bytes(page_size);
  // Align the start to the page size (required for large-page backing).
  next_addr_ = (next_addr_ + page - 1) / page * page;
  const std::uint64_t start = next_addr_;
  VmArea area{.start = start, .length = length, .page_size = page_size};
  if (policy == PagingPolicy::kPrePopulate) {
    area.populated_pages = area.total_pages();
  }
  next_addr_ += area.total_pages() * page;
  areas_.emplace(start, area);
  return start;
}

AddressSpace::UnmapResult AddressSpace::unmap(std::uint64_t start,
                                              std::uint64_t length) {
  auto it = areas_.find(start);
  HPCOS_CHECK_MSG(it != areas_.end(), "unmap: not an area start");
  VmArea& area = it->second;
  HPCOS_CHECK_MSG(length <= area.length, "unmap: length exceeds area");

  const std::uint64_t page = hw::bytes(area.page_size);
  const std::uint64_t pages_removed =
      std::min((length + page - 1) / page, area.total_pages());
  // Pages populate from the low end, so the unmapped prefix holds
  // min(populated, removed) resident pages.
  const std::uint64_t resident_removed =
      std::min(area.populated_pages, pages_removed);

  UnmapResult r{.pages_released = pages_removed,
                .tlb_flushes = resident_removed};

  if (pages_removed >= area.total_pages()) {
    areas_.erase(it);
  } else {
    VmArea rest = area;
    rest.start += pages_removed * page;
    rest.length -= pages_removed * page;
    rest.populated_pages = area.populated_pages - resident_removed;
    areas_.erase(it);
    areas_.emplace(rest.start, rest);
  }
  return r;
}

}  // namespace hpcos::os
