// IHK resource partitioning (§5).
//
// IHK reserves CPU cores and physical memory from the host Linux *at
// runtime* — no reboot — and hands them to a lightweight kernel instance.
// The partition tracks what has been taken from the host so it can be
// released when the LWK shuts down (the job-epilogue path on OFP).
#pragma once

#include <cstdint>

#include "hw/cpuset.h"
#include "hw/topology.h"

namespace hpcos::ihk {

class ResourcePartition {
 public:
  // `host_cores`: cores currently owned by the host Linux; reservations
  // must come out of this set and must not touch `protected_cores`
  // (system/assistant cores Linux needs for itself).
  ResourcePartition(const hw::NodeTopology& topology, hw::CpuSet host_cores,
                    hw::CpuSet protected_cores, std::uint64_t host_memory);

  // Reserve cores for an LWK. Fails (returning false, no change) when the
  // request overlaps protected cores, already-reserved cores, or cores the
  // host does not own.
  bool reserve_cpus(const hw::CpuSet& cores);
  // Reserve physical memory bytes; fails when exceeding what remains.
  bool reserve_memory(std::uint64_t bytes);

  void release_cpus(const hw::CpuSet& cores);
  void release_memory(std::uint64_t bytes);

  const hw::CpuSet& reserved_cpus() const { return reserved_cpus_; }
  std::uint64_t reserved_memory() const { return reserved_memory_; }
  // What the host retains after reservations.
  hw::CpuSet remaining_host_cpus() const;
  std::uint64_t remaining_host_memory() const {
    return host_memory_ - reserved_memory_;
  }

 private:
  hw::CpuSet host_cores_;
  hw::CpuSet protected_cores_;
  std::uint64_t host_memory_;
  hw::CpuSet reserved_cpus_;
  std::uint64_t reserved_memory_ = 0;
};

}  // namespace hpcos::ihk
