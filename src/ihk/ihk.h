// IHK manager: LWK instance lifecycle on top of resource partitioning.
//
// Mirrors the real IHK's operational model (a collection of Linux kernel
// modules): reserve resources dynamically, create an OS instance, boot an
// LWK into it, tear it down, release the resources — all without rebooting
// the host. On OFP this is exactly what the job prologue/epilogue scripts
// do (§5.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ihk/ikc.h"
#include "ihk/resource.h"
#include "sim/simulator.h"

namespace hpcos::ihk {

enum class OsInstanceStatus : std::uint8_t {
  kCreated,   // resources assigned, not booted
  kBooted,    // LWK running
  kShutdown,  // stopped, resources still held
};
std::string to_string(OsInstanceStatus s);

struct OsInstance {
  int id = -1;
  OsInstanceStatus status = OsInstanceStatus::kCreated;
  hw::CpuSet cpus;
  std::uint64_t memory_bytes = 0;
  // Delegation channels (LWK -> Linux and Linux -> LWK).
  std::unique_ptr<IkcChannel> to_host;
  std::unique_ptr<IkcChannel> to_lwk;
};

class IhkManager {
 public:
  IhkManager(sim::Simulator& simulator, const hw::NodeTopology& topology,
             hw::CpuSet host_cores, hw::CpuSet protected_cores,
             std::uint64_t host_memory_bytes,
             SimTime ikc_latency = SimTime::ns(800));

  ResourcePartition& partition() { return partition_; }

  // Create an OS instance over already-reserved resources. Returns the
  // instance id, or -1 when cpus/memory are not actually reserved.
  int create_os_instance(const hw::CpuSet& cpus, std::uint64_t memory_bytes);
  // Mark the instance booted (the McKernel object is constructed by the
  // caller against the instance's resources).
  void boot(int instance_id);
  void shutdown(int instance_id);
  // Destroy the instance and release its resources back to the host.
  void destroy(int instance_id);

  OsInstance& instance(int instance_id);
  std::size_t instance_count() const { return instances_.size(); }

 private:
  sim::Simulator& sim_;
  ResourcePartition partition_;
  SimTime ikc_latency_;
  std::map<int, OsInstance> instances_;
  int next_id_ = 0;
};

}  // namespace hpcos::ihk
