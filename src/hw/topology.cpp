#include "hw/topology.h"

#include <numeric>

#include "common/check.h"

namespace hpcos::hw {

NodeTopology::NodeTopology(std::string name, int physical_cores, int smt_ways)
    : name_(std::move(name)),
      physical_cores_(physical_cores),
      smt_ways_(smt_ways),
      system_cores_(static_cast<std::size_t>(physical_cores * smt_ways)),
      application_cores_(
          static_cast<std::size_t>(physical_cores * smt_ways)) {
  HPCOS_CHECK(physical_cores > 0);
  HPCOS_CHECK(smt_ways >= 1);
}

void NodeTopology::add_numa_domain(NumaDomain domain) {
  HPCOS_CHECK_MSG(domain.cores.capacity() ==
                      static_cast<std::size_t>(logical_cores()),
                  "NUMA domain mask sized for a different topology");
  numa_.push_back(std::move(domain));
}

std::uint64_t NodeTopology::total_memory_bytes() const {
  return std::accumulate(numa_.begin(), numa_.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const NumaDomain& d) {
                           return acc + d.memory_bytes;
                         });
}

void NodeTopology::set_core_partition(CpuSet system_cores,
                                      CpuSet application_cores) {
  HPCOS_CHECK_MSG(!system_cores.intersects(application_cores),
                  "system and application core sets overlap");
  system_cores_ = std::move(system_cores);
  application_cores_ = std::move(application_cores);
}

}  // namespace hpcos::hw
