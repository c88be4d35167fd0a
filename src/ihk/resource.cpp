#include "ihk/resource.h"

#include "common/check.h"

namespace hpcos::ihk {

ResourcePartition::ResourcePartition(const hw::NodeTopology& topology,
                                     hw::CpuSet host_cores,
                                     hw::CpuSet protected_cores,
                                     std::uint64_t host_memory)
    : host_cores_(std::move(host_cores)),
      protected_cores_(std::move(protected_cores)),
      host_memory_(host_memory),
      reserved_cpus_(static_cast<std::size_t>(topology.logical_cores())) {
  HPCOS_CHECK(host_cores_.any());
  HPCOS_CHECK_MSG(host_cores_.contains(protected_cores_),
                  "protected cores must be host-owned");
}

bool ResourcePartition::reserve_cpus(const hw::CpuSet& cores) {
  if (!cores.any()) return false;
  if (!host_cores_.contains(cores)) return false;
  if (cores.intersects(protected_cores_)) return false;
  if (cores.intersects(reserved_cpus_)) return false;
  reserved_cpus_ = reserved_cpus_ | cores;
  return true;
}

bool ResourcePartition::reserve_memory(std::uint64_t bytes) {
  if (bytes == 0 || bytes > remaining_host_memory()) return false;
  reserved_memory_ += bytes;
  return true;
}

void ResourcePartition::release_cpus(const hw::CpuSet& cores) {
  HPCOS_CHECK_MSG(reserved_cpus_.contains(cores),
                  "releasing cores that were not reserved");
  reserved_cpus_ = reserved_cpus_.minus(cores);
}

void ResourcePartition::release_memory(std::uint64_t bytes) {
  HPCOS_CHECK_MSG(bytes <= reserved_memory_,
                  "releasing more memory than reserved");
  reserved_memory_ -= bytes;
}

hw::CpuSet ResourcePartition::remaining_host_cpus() const {
  return host_cores_.minus(reserved_cpus_);
}

}  // namespace hpcos::ihk
