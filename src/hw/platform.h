// Platform descriptions for the two machines of the study (Table 1).
//
// A PlatformConfig bundles everything the substrate needs to instantiate a
// node of Oakforest-PACS (Intel Xeon Phi 7250 "Knights Landing") or Fugaku
// (Fujitsu A64FX), plus the system-level attributes (node count, fabric)
// used by the cluster engine. The numbers come straight from the paper's
// Table 1 and §3/§4; microarchitectural costs that the paper does not state
// are set to representative published values and are trivially overridable.
#pragma once

#include <cstdint>
#include <string>

#include "hw/cache.h"
#include "hw/hwbarrier.h"
#include "hw/pmu.h"
#include "hw/tlb.h"
#include "hw/topology.h"

namespace hpcos::hw {

enum class InterconnectKind { kOmniPath, kTofuD };
std::string to_string(InterconnectKind k);

enum class LargePageMechanism { kThp, kHugeTlbFs };
std::string to_string(LargePageMechanism m);

// The Linux runtime settings row of Table 1, consumed by linuxk when
// configuring a node's kernel.
struct LinuxRuntimeSettings {
  std::string distribution;
  std::string kernel_version;
  bool containerized = false;       // Docker on Fugaku; none on OFP
  bool nohz_full_app_cores = true;  // both platforms
  bool cgroup_cpu_isolation = false;  // Fugaku only
  bool irq_steered_to_os_cores = false;  // Fugaku only; OFP balances IRQs
  LargePageMechanism large_pages = LargePageMechanism::kThp;
};

struct PlatformConfig {
  // NodeTopology has no default constructor, so a PlatformConfig is always
  // built around an explicit topology.
  explicit PlatformConfig(NodeTopology t) : topology(std::move(t)) {}

  std::string name;
  std::string cpu_model;
  std::string isa;

  NodeTopology topology;
  TlbParams tlb;
  CacheParams cache;
  HwBarrierParams hw_barrier;
  PmuParams pmu;

  // Per-core scalar throughput used to convert "work amounts" into time;
  // the relative OS comparison never depends on its absolute value.
  double core_gflops = 1.0;

  LinuxRuntimeSettings linux_settings;

  // System level.
  std::int64_t num_compute_nodes = 0;
  double peak_pflops = 0.0;
  InterconnectKind interconnect = InterconnectKind::kOmniPath;

  // Convenience accessors for the app/system split.
  int app_core_count() const {
    return static_cast<int>(topology.application_cores().count());
  }
  int system_core_count() const {
    return static_cast<int>(topology.system_cores().count());
  }
};

// Oakforest-PACS: 8,192 KNL nodes, CentOS 7.3, moderately tuned
// (nohz_full only; no cgroup isolation, balanced IRQs, THP).
PlatformConfig make_ofp_platform();

// Fugaku: 158,976 A64FX nodes, RHEL 8.3, highly tuned (all §4
// countermeasures available). `assistant_cores` is 2 on the common 50-core
// parts and 4 on 52-core parts.
PlatformConfig make_fugaku_platform(int assistant_cores = 2);

// The in-house 16-node A64FX testbed used for Table 2 / Figure 3: identical
// node hardware and software to Fugaku, smaller system scale.
PlatformConfig make_fugaku_testbed_platform();

}  // namespace hpcos::hw
