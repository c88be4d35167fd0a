// Virtual NUMA nodes (§4.1.2).
//
// A64FX firmware splits the physical address space into system and
// application areas exposed as distinct NUMA domains, so allocations by
// non-application processes can never fragment application memory. The
// model tracks allocation churn per region and derives a fragmentation
// factor that scales page-fault service cost: without vNUMA, system churn
// lands in the shared region and application faults slow down over time.
#pragma once

#include <cstdint>

#include "common/check.h"

namespace hpcos::linuxk {

enum class MemRegion : std::uint8_t { kApplication, kSystem };

class VirtualNuma {
 public:
  // `enabled=false` models a conventional layout where both classes of
  // allocation share one region.
  VirtualNuma(bool enabled, std::uint64_t app_bytes,
              std::uint64_t system_bytes);

  bool enabled() const { return enabled_; }

  // Account an allocation/free. Frees add churn: recycled areas are what
  // fragments the physical allocator.
  bool allocate(MemRegion region, std::uint64_t bytes);
  void free(MemRegion region, std::uint64_t bytes);

  // Multiplier (>= 1) on application page-fault service time caused by
  // fragmentation of the region application allocations draw from.
  double app_fault_factor() const;

  // Fragmentation score in [0, 1] of the region serving `region` requests.
  double fragmentation(MemRegion region) const;

 private:
  struct Region {
    std::uint64_t capacity = 0;
    std::uint64_t used = 0;
    // Cumulative freed bytes; saturating proxy for buddy fragmentation.
    std::uint64_t churn = 0;
  };
  Region& region_for(MemRegion r);
  const Region& region_for(MemRegion r) const;
  static double frag_score(const Region& r);

  bool enabled_;
  Region app_;
  Region system_;
  Region shared_;  // used when vNUMA is disabled
};

}  // namespace hpcos::linuxk
