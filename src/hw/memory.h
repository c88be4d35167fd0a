// Physical memory technologies and per-node memory layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "hw/ids.h"

namespace hpcos::hw {

enum class MemoryKind { kDdr4, kMcdram, kHbm2 };

struct MemoryParams {
  MemoryKind kind = MemoryKind::kDdr4;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t bandwidth_bytes_per_sec = 0;
  SimTime latency = SimTime::ns(90);
};

// One physically-addressable memory region, attached to a NUMA domain
// (Quadrant-flat KNL exposes MCDRAM and DDR4 as distinct NUMA domains;
// A64FX exposes one HBM2 slice per CMG).
struct MemoryRegion {
  NumaId numa = kInvalidNuma;
  MemoryParams params;
};

class NodeMemory {
 public:
  void add_region(MemoryRegion region);
  const std::vector<MemoryRegion>& regions() const { return regions_; }

 private:
  std::vector<MemoryRegion> regions_;
};

inline constexpr std::uint64_t operator""_KiB(unsigned long long v) {
  return v * 1024ull;
}
inline constexpr std::uint64_t operator""_MiB(unsigned long long v) {
  return v * 1024ull * 1024ull;
}
inline constexpr std::uint64_t operator""_GiB(unsigned long long v) {
  return v * 1024ull * 1024ull * 1024ull;
}

}  // namespace hpcos::hw
