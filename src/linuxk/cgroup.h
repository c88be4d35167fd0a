// Linux control groups (the subset the study leans on).
//
// Fugaku isolates system from application work with two cgroups (§4.1.1,
// §4.2): a cpuset controller binding members to a core/NUMA partition and
// a memory controller limiting application memory. Docker creates these
// under the hood. The cluster job launcher models the memory controller
// with a CgroupManager per node; the cpuset side is the affinity mask the
// launcher gives each rank.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "oskernel/types.h"

namespace hpcos::linuxk {

// memory controller: usage accounting against a limit.
class MemoryCgroup {
 public:
  MemoryCgroup(std::string name, std::uint64_t limit_bytes)
      : name_(std::move(name)), limit_(limit_bytes) {}

  const std::string& name() const { return name_; }
  std::uint64_t limit_bytes() const { return limit_; }
  std::uint64_t usage_bytes() const { return usage_; }

  // Attempt to charge; fails (and leaves usage unchanged) past the limit.
  bool try_charge(std::uint64_t bytes);
  void uncharge(std::uint64_t bytes);

 private:
  std::string name_;
  std::uint64_t limit_;
  std::uint64_t usage_ = 0;
};

// Registry of the node's cgroups and thread membership.
class CgroupManager {
 public:
  // Create (or replace) a memory cgroup.
  MemoryCgroup& create_memory(std::string name, std::uint64_t limit_bytes);

  MemoryCgroup* find_memory(const std::string& name);

  // Record/lookup which memory cgroup a process charges to.
  void assign_memory_cgroup(os::Pid pid, const std::string& name);
  MemoryCgroup* memory_cgroup_of(os::Pid pid);

 private:
  std::map<std::string, MemoryCgroup> memories_;
  std::map<os::Pid, std::string> process_memcg_;
};

}  // namespace hpcos::linuxk
