#include "hw/memory.h"

#include "common/check.h"

namespace hpcos::hw {

void NodeMemory::add_region(MemoryRegion region) {
  HPCOS_CHECK(region.params.capacity_bytes > 0);
  regions_.push_back(region);
}

std::uint64_t NodeMemory::total_capacity() const {
  std::uint64_t total = 0;
  for (const auto& r : regions_) total += r.params.capacity_bytes;
  return total;
}

std::uint64_t NodeMemory::capacity_of(MemoryKind kind) const {
  std::uint64_t total = 0;
  for (const auto& r : regions_) {
    if (r.params.kind == kind) total += r.params.capacity_bytes;
  }
  return total;
}

std::uint64_t NodeMemory::bandwidth_of(MemoryKind kind) const {
  std::uint64_t total = 0;
  for (const auto& r : regions_) {
    if (r.params.kind == kind) total += r.params.bandwidth_bytes_per_sec;
  }
  return total;
}

SimTime NodeMemory::stream_time(MemoryKind kind, std::uint64_t bytes) const {
  const std::uint64_t bw = bandwidth_of(kind);
  HPCOS_CHECK_MSG(bw > 0, "no memory of requested kind");
  const double secs =
      static_cast<double>(bytes) / static_cast<double>(bw);
  return SimTime::from_sec(secs);
}

}  // namespace hpcos::hw
