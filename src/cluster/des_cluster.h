// Multi-node DES cluster: several SimNodes on one shared clock.
//
// §6.3: "we extended FWQ to run on an arbitrary number of nodes (using
// MPI) and measure OS noise on all CPU cores simultaneously". This class
// is that harness for the DES side: N fully-modeled Linux nodes advance
// in one simulator, FWQ runs on every application core of every node at
// once, and per-node traces come back for the aggregate statistics. Node
// seeds derive from a base seed, so each node's noise is independent but
// the whole cluster run is reproducible.
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.h"
#include "noise/fwq.h"

namespace hpcos::cluster {

class DesCluster {
 public:
  struct Options {
    Seed seed{0xC1D5};
    std::size_t trace_capacity = 0;
  };

  // All nodes share `platform` hardware and the given kernel config.
  DesCluster(int num_nodes, const hw::PlatformConfig& platform,
             const linuxk::LinuxConfig& linux_config, Options options);

  int size() const { return static_cast<int>(nodes_.size()); }
  sim::Simulator& simulator() { return sim_; }
  SimNode& node(int index) { return *nodes_.at(static_cast<std::size_t>(index)); }

  // Run FWQ on every application core of every node simultaneously;
  // result[n] holds node n's per-core traces.
  std::vector<std::vector<noise::FwqTrace>> run_fwq_all(
      noise::FwqConfig config);

 private:
  sim::Simulator sim_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
};

}  // namespace hpcos::cluster
