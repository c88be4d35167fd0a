#include "linuxk/cgroup.h"

#include "common/check.h"

namespace hpcos::linuxk {

bool MemoryCgroup::try_charge(std::uint64_t bytes) {
  if (limit_ != 0 && usage_ + bytes > limit_) return false;
  usage_ += bytes;
  return true;
}

void MemoryCgroup::uncharge(std::uint64_t bytes) {
  HPCOS_CHECK_MSG(bytes <= usage_, "memcg uncharge below zero");
  usage_ -= bytes;
}

MemoryCgroup& CgroupManager::create_memory(std::string name,
                                           std::uint64_t limit_bytes) {
  auto [it, _] =
      memories_.insert_or_assign(name, MemoryCgroup(name, limit_bytes));
  return it->second;
}

MemoryCgroup* CgroupManager::find_memory(const std::string& name) {
  auto it = memories_.find(name);
  return it == memories_.end() ? nullptr : &it->second;
}

void CgroupManager::assign_memory_cgroup(os::Pid pid,
                                         const std::string& name) {
  HPCOS_CHECK_MSG(find_memory(name) != nullptr, "unknown memory cgroup");
  process_memcg_[pid] = name;
}

MemoryCgroup* CgroupManager::memory_cgroup_of(os::Pid pid) {
  auto it = process_memcg_.find(pid);
  return it == process_memcg_.end() ? nullptr : find_memory(it->second);
}

}  // namespace hpcos::linuxk
