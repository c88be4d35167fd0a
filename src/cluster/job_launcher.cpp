#include "cluster/job_launcher.h"

#include <algorithm>

#include "common/check.h"

namespace hpcos::cluster {

LaunchedJob JobLauncher::launch(const LaunchSpec& spec) {
  HPCOS_CHECK(spec.ranks > 0 && spec.threads_per_rank > 0);
  const auto& topo = node_.topology();
  os::NodeKernel& app_kernel = node_.app_kernel();

  LaunchedJob job;

  // Container setup: only meaningful when Linux runs the application
  // cores itself. On a multi-kernel node the core partition is already
  // structural (§5.1).
  if (spec.containerized && !node_.is_multikernel()) {
    node_.linux().cgroups().create_memory(LaunchedJob::kAppMemcg,
                                          /*limit_bytes=*/0);  // unlimited
    job.used_cgroups = true;
  }

  // Application NUMA domains, in id order.
  std::vector<const hw::NumaDomain*> domains;
  for (const auto& d : topo.numa_domains()) {
    if (!d.is_system_domain && d.cores.any()) domains.push_back(&d);
  }
  HPCOS_CHECK_MSG(!domains.empty(), "no application NUMA domains");

  // Round-robin ranks over domains; each rank takes a disjoint slice of
  // its domain's cores (§4.1.4's automatic binding).
  const int ranks_per_domain =
      (spec.ranks + static_cast<int>(domains.size()) - 1) /
      static_cast<int>(domains.size());
  for (int rank = 0; rank < spec.ranks; ++rank) {
    const auto domain_idx =
        static_cast<std::size_t>(rank) % domains.size();
    const hw::NumaDomain& domain = *domains[domain_idx];
    const int slot = rank / static_cast<int>(domains.size());

    const auto domain_cores = domain.cores.to_vector();
    const int slice =
        std::max(1, static_cast<int>(domain_cores.size()) /
                        ranks_per_domain);
    const int first = slot * slice;
    HPCOS_CHECK_MSG(first < static_cast<int>(domain_cores.size()),
                    "more ranks than available cores in the NUMA domain");
    hw::CpuSet cores(static_cast<std::size_t>(topo.logical_cores()));
    for (int c = first;
         c < std::min(first + slice,
                      static_cast<int>(domain_cores.size()));
         ++c) {
      cores.set(domain_cores[static_cast<std::size_t>(c)]);
    }

    os::ProcessAttrs attrs;
    attrs.name = "rank-" + std::to_string(rank);
    attrs.preferred_page_size = spec.preferred_page_size;
    attrs.paging = spec.paging;
    attrs.heap = spec.heap;
    const os::Pid pid = app_kernel.create_process(std::move(attrs));
    if (job.used_cgroups) {
      node_.linux().cgroups().assign_memory_cgroup(pid,
                                                   LaunchedJob::kAppMemcg);
    }
    job.ranks.push_back(RankPlacement{.rank = rank,
                                      .pid = pid,
                                      .numa = domain.id,
                                      .cores = std::move(cores)});
  }
  return job;
}

os::ThreadId JobLauncher::spawn_rank_thread(
    const LaunchedJob& job, int rank, std::unique_ptr<os::ThreadBody> body,
    const std::string& name) {
  HPCOS_CHECK(rank >= 0 &&
              static_cast<std::size_t>(rank) < job.ranks.size());
  const RankPlacement& placement = job.ranks[static_cast<std::size_t>(rank)];
  os::SpawnAttrs attrs;
  attrs.name = name;
  attrs.pid = placement.pid;
  attrs.affinity = placement.cores;
  return node_.app_kernel().spawn(std::move(body), std::move(attrs));
}

}  // namespace hpcos::cluster
