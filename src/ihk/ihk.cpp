#include "ihk/ihk.h"

#include "common/check.h"

namespace hpcos::ihk {

std::string to_string(OsInstanceStatus s) {
  switch (s) {
    case OsInstanceStatus::kCreated:
      return "created";
    case OsInstanceStatus::kBooted:
      return "booted";
    case OsInstanceStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

IhkManager::IhkManager(sim::Simulator& simulator,
                       const hw::NodeTopology& topology,
                       hw::CpuSet host_cores, hw::CpuSet protected_cores,
                       std::uint64_t host_memory_bytes, SimTime ikc_latency)
    : sim_(simulator),
      partition_(topology, std::move(host_cores), std::move(protected_cores),
                 host_memory_bytes),
      ikc_latency_(ikc_latency) {}

int IhkManager::create_os_instance(const hw::CpuSet& cpus,
                                   std::uint64_t memory_bytes) {
  if (!partition_.reserved_cpus().contains(cpus)) return -1;
  if (memory_bytes > partition_.reserved_memory()) return -1;

  const int id = next_id_++;
  OsInstance inst;
  inst.id = id;
  inst.cpus = cpus;
  inst.memory_bytes = memory_bytes;
  inst.to_host = std::make_unique<IkcChannel>(
      sim_, "ikc-os" + std::to_string(id) + "-to-host", ikc_latency_);
  inst.to_lwk = std::make_unique<IkcChannel>(
      sim_, "ikc-host-to-os" + std::to_string(id), ikc_latency_);
  instances_.emplace(id, std::move(inst));
  return id;
}

void IhkManager::boot(int instance_id) {
  OsInstance& inst = instance(instance_id);
  HPCOS_CHECK_MSG(inst.status == OsInstanceStatus::kCreated,
                  "boot of non-fresh OS instance");
  inst.status = OsInstanceStatus::kBooted;
}

void IhkManager::shutdown(int instance_id) {
  OsInstance& inst = instance(instance_id);
  HPCOS_CHECK_MSG(inst.status == OsInstanceStatus::kBooted,
                  "shutdown of non-booted OS instance");
  inst.status = OsInstanceStatus::kShutdown;
}

void IhkManager::destroy(int instance_id) {
  OsInstance& inst = instance(instance_id);
  HPCOS_CHECK_MSG(inst.status != OsInstanceStatus::kBooted,
                  "destroy of a running OS instance");
  partition_.release_cpus(inst.cpus);
  partition_.release_memory(inst.memory_bytes);
  instances_.erase(instance_id);
}

OsInstance& IhkManager::instance(int instance_id) {
  auto it = instances_.find(instance_id);
  HPCOS_CHECK_MSG(it != instances_.end(), "unknown OS instance");
  return it->second;
}

}  // namespace hpcos::ihk
