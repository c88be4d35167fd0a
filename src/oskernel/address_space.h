// Virtual address space model.
//
// Carries the quantities the study turns on: how many pages back a mapping
// (page-fault counts under demand paging), which page size backs it (TLB
// reach), and how many TLB invalidations an unmap generates (the A64FX
// broadcast-TLBI noise source of §4.2.2 — "operations that release large
// amounts of memory ... can cause hundreds to thousands [of] consecutive
// TLB flushes").
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "hw/tlb.h"

namespace hpcos::os {

enum class PagingPolicy : std::uint8_t {
  kDemand,       // populate on first touch (not modelled: stays unpopulated)
  kPrePopulate,  // populate at map time (MAP_POPULATE / hugeTLBfs prealloc)
};

// Fault taxonomy for span tracing (the Figure 5-7 attribution). Faults
// are taken when a mapping is populated at map time: on base pages that
// is a bulk populate (MAP_POPULATE prepaging — the closest thing to a
// major-fault storm in a diskless model); any fault on a large-page-backed
// area is the hugeTLB path with its own allocator and cost.
enum class FaultKind : std::uint8_t {
  kMajor,
  kHugeTlb,
};
std::string to_string(FaultKind k);

// Classify a populate batch: large pages take the hugeTLB path, base
// pages are major.
FaultKind classify_fault(hw::PageSize page, hw::PageSize base_page);

struct VmArea {
  std::uint64_t start = 0;
  std::uint64_t length = 0;
  hw::PageSize page_size = hw::PageSize::k4K;
  // Pages populated so far, counted from the low end: all of them under
  // kPrePopulate, none under kDemand.
  std::uint64_t populated_pages = 0;

  std::uint64_t total_pages() const {
    return (length + hw::bytes(page_size) - 1) / hw::bytes(page_size);
  }
};

class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t base = 0x0000'7000'0000'0000ull);

  // Create a mapping; returns its start address. Never fails (the model
  // does not emulate address-space exhaustion).
  std::uint64_t map(std::uint64_t length, hw::PageSize page_size,
                    PagingPolicy policy);

  struct UnmapResult {
    std::uint64_t pages_released = 0;
    // TLB invalidations the kernel must issue: one per released page that
    // was actually populated.
    std::uint64_t tlb_flushes = 0;
  };
  // Unmap from the start of an existing area; length may be shorter than
  // the area (the remainder stays mapped). `start` must be an area start.
  UnmapResult unmap(std::uint64_t start, std::uint64_t length);

  std::size_t area_count() const { return areas_.size(); }
  const std::map<std::uint64_t, VmArea>& areas() const { return areas_; }

 private:
  std::map<std::uint64_t, VmArea> areas_;  // keyed by start address
  std::uint64_t next_addr_;
};

}  // namespace hpcos::os
