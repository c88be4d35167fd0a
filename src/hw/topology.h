// Node topology: logical cores, SMT grouping, NUMA domains, and the
// system/application core split the paper's platforms use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cpuset.h"
#include "hw/ids.h"

namespace hpcos::hw {

struct NumaDomain {
  NumaId id = kInvalidNuma;
  CpuSet cores;                       // logical CPUs in this domain
  std::uint64_t memory_bytes = 0;     // capacity attached to the domain
  bool is_system_domain = false;      // true for Fugaku virtual NUMA system
                                      // slices (see DESIGN.md §2.5)
};

class NodeTopology {
 public:
  NodeTopology(std::string name, int physical_cores, int smt_ways);

  const std::string& name() const { return name_; }
  int physical_cores() const { return physical_cores_; }
  int smt_ways() const { return smt_ways_; }
  int logical_cores() const { return physical_cores_ * smt_ways_; }

  void add_numa_domain(NumaDomain domain);
  const std::vector<NumaDomain>& numa_domains() const { return numa_; }
  std::uint64_t total_memory_bytes() const;

  // The system/application split. On Fugaku: 2-4 assistant cores vs 48
  // application cores. On OFP: 16 logical "designated" system CPUs vs 256
  // encouraged application CPUs (the whole chip remains usable).
  void set_core_partition(CpuSet system_cores, CpuSet application_cores);
  const CpuSet& system_cores() const { return system_cores_; }
  const CpuSet& application_cores() const { return application_cores_; }

  CpuSet all_cores() const {
    return CpuSet::all(static_cast<std::size_t>(logical_cores()));
  }

 private:
  std::string name_;
  int physical_cores_;
  int smt_ways_;
  std::vector<NumaDomain> numa_;
  CpuSet system_cores_;
  CpuSet application_cores_;
};

}  // namespace hpcos::hw
