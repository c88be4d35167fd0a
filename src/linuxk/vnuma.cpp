#include "linuxk/vnuma.h"

#include <algorithm>
#include <cmath>

namespace hpcos::linuxk {

VirtualNuma::VirtualNuma(bool enabled, std::uint64_t app_bytes,
                         std::uint64_t system_bytes)
    : enabled_(enabled) {
  HPCOS_CHECK(app_bytes > 0 && system_bytes > 0);
  app_.capacity = app_bytes;
  system_.capacity = system_bytes;
  shared_.capacity = app_bytes + system_bytes;
}

VirtualNuma::Region& VirtualNuma::region_for(MemRegion r) {
  if (!enabled_) return shared_;
  return r == MemRegion::kApplication ? app_ : system_;
}

const VirtualNuma::Region& VirtualNuma::region_for(MemRegion r) const {
  if (!enabled_) return shared_;
  return r == MemRegion::kApplication ? app_ : system_;
}

bool VirtualNuma::allocate(MemRegion region, std::uint64_t bytes) {
  Region& r = region_for(region);
  if (r.used + bytes > r.capacity) return false;
  r.used += bytes;
  return true;
}

void VirtualNuma::free(MemRegion region, std::uint64_t bytes) {
  Region& r = region_for(region);
  HPCOS_CHECK_MSG(bytes <= r.used, "vNUMA free below zero");
  r.used -= bytes;
  r.churn += bytes;
}

double VirtualNuma::frag_score(const Region& r) {
  if (r.churn == 0) return 0.0;
  // Churn equal to the region capacity ~= fully recycled memory; score
  // saturates at 1 with diminishing returns.
  const double x =
      static_cast<double>(r.churn) / static_cast<double>(r.capacity);
  return 1.0 - std::exp(-x);
}

double VirtualNuma::fragmentation(MemRegion region) const {
  return frag_score(region_for(region));
}

double VirtualNuma::app_fault_factor() const {
  // Fragmented buddy lists force order-0 fallbacks and compaction work;
  // a fully fragmented region roughly doubles fault service time.
  return 1.0 + fragmentation(MemRegion::kApplication);
}

}  // namespace hpcos::linuxk
