// Job launcher: the batch-system integration of §4.1 / §5.1.
//
// What Fugaku's TCS + Docker do at job start, reproduced against a
// SimNode:
//  * containerization (§4.1.1): an application memory cgroup on Linux
//    nodes, with each rank's affinity mask standing in for the cpuset
//    cgroup; on a multi-kernel node the LWK *is* the "plugin replacement
//    for the cgroup facility" (§5.1) and no cgroup setup is needed;
//  * NUMA-aware placement (§4.1.4): MPI ranks are bound to CMGs
//    round-robin, each rank receiving a disjoint slice of its domain's
//    cores — users never touch the binding interfaces themselves;
//  * memory policy (§4.1.3): processes are created with the runtime's
//    large-page preference, pre-allocation/demand choice and caching
//    allocator, as the environment variables would select.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "oskernel/process.h"

namespace hpcos::cluster {

struct LaunchSpec {
  int ranks = 4;
  int threads_per_rank = 12;
  bool containerized = true;  // Docker-style cgroup setup (Linux nodes)
  hw::PageSize preferred_page_size = hw::PageSize::k2M;
  os::PagingPolicy paging = os::PagingPolicy::kPrePopulate;
  os::HeapBehavior heap = os::HeapBehavior::kCached;
};

struct RankPlacement {
  int rank = 0;
  os::Pid pid = os::kInvalidPid;
  hw::NumaId numa = hw::kInvalidNuma;
  hw::CpuSet cores;  // the rank's dedicated core slice
};

struct LaunchedJob {
  std::vector<RankPlacement> ranks;
  bool used_cgroups = false;
  static constexpr const char* kAppMemcg = "job-app-mem";
};

class JobLauncher {
 public:
  explicit JobLauncher(SimNode& node) : node_(node) {}

  // Prologue: cgroup setup (Linux) + rank processes with NUMA binding.
  // Fails (SimError) when ranks cannot be placed (more ranks than cores).
  LaunchedJob launch(const LaunchSpec& spec);

  // Start a rank's main thread inside its placement.
  os::ThreadId spawn_rank_thread(const LaunchedJob& job, int rank,
                                 std::unique_ptr<os::ThreadBody> body,
                                 const std::string& name);

 private:
  SimNode& node_;
};

}  // namespace hpcos::cluster
