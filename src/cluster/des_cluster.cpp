#include "cluster/des_cluster.h"

#include "common/check.h"

namespace hpcos::cluster {

DesCluster::DesCluster(int num_nodes, const hw::PlatformConfig& platform,
                       const linuxk::LinuxConfig& linux_config,
                       Options options) {
  HPCOS_CHECK(num_nodes >= 1);
  nodes_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    SimNodeOptions node_opts;
    node_opts.seed =
        Seed{options.seed.value + 0x9E3779B97F4A7C15ull *
                                      static_cast<std::uint64_t>(n + 1)};
    node_opts.trace_capacity = options.trace_capacity;
    node_opts.shared_simulator = &sim_;
    nodes_.push_back(
        SimNode::make_linux_node(platform, linux_config, node_opts));
  }
}

std::vector<std::vector<noise::FwqTrace>> DesCluster::run_fwq_all(
    noise::FwqConfig config) {
  // Spawn all FWQ threads first (they begin at the same simulated time on
  // every node, like the MPI-launched FWQ), then drive the shared clock
  // until every thread everywhere has finished.
  struct PerNode {
    std::vector<const noise::FwqThread*> bodies;
  };
  std::vector<PerNode> spawned(nodes_.size());

  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    os::NodeKernel& kernel = nodes_[n]->app_kernel();
    for (hw::CoreId core :
         nodes_[n]->topology().application_cores().to_vector()) {
      auto body = std::make_unique<noise::FwqThread>(config);
      spawned[n].bodies.push_back(body.get());
      os::SpawnAttrs attrs;
      attrs.name = "fwq-" + std::to_string(n) + "-" + std::to_string(core);
      attrs.affinity = hw::CpuSet::of(
          static_cast<std::size_t>(nodes_[n]->topology().logical_cores()),
          {core});
      kernel.spawn(std::move(body), std::move(attrs));
    }
  }

  auto all_done = [&] {
    for (const auto& pn : spawned) {
      for (const noise::FwqThread* b : pn.bodies) {
        if (!b->finished()) return false;
      }
    }
    return true;
  };
  while (!all_done()) {
    const bool progressed = sim_.step();
    HPCOS_CHECK_MSG(progressed,
                    "cluster FWQ deadlock: event queue drained early");
  }

  std::vector<std::vector<noise::FwqTrace>> out(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (const noise::FwqThread* b : spawned[n].bodies) {
      out[n].push_back(b->trace());
    }
  }
  return out;
}

}  // namespace hpcos::cluster
