#include "hw/memory.h"

#include "common/check.h"

namespace hpcos::hw {

void NodeMemory::add_region(MemoryRegion region) {
  HPCOS_CHECK(region.params.capacity_bytes > 0);
  regions_.push_back(region);
}

}  // namespace hpcos::hw
