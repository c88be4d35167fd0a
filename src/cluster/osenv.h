// The four OS environments of the study, as cost models for the BSP engine.
//
// Each OsEnvironment bundles a platform (Table 1), a noise profile, a
// memory-management cost model (page sizes, large-page coverage, heap
// churn behaviour), the fabric, and the RDMA registration path. The
// factories encode the paper's configurations:
//   OFP/Linux       — moderately tuned: THP (partial large-page coverage),
//                     glibc heap churn, unbound daemons, balanced IRQs.
//   OFP/McKernel    — LWK on the same nodes: full large pages, retained
//                     memory, quiet cores.
//   Fugaku/Linux    — highly tuned: hugeTLBfs full coverage, caching
//                     allocator, all §4 countermeasures.
//   Fugaku/McKernel — LWK plus Tofu PicoDriver.
#pragma once

#include <cstdint>
#include <string>

#include "hw/platform.h"
#include "net/fabric.h"
#include "net/rdma.h"
#include "noise/profiles.h"
#include "oskernel/process.h"

namespace hpcos::cluster {

enum class OsKind : std::uint8_t { kLinux, kMcKernel };

struct MemEnvModel {
  hw::PageSize base_page = hw::PageSize::k4K;
  hw::PageSize large_page = hw::PageSize::k2M;
  // Fraction of application memory actually backed by large pages (THP is
  // opportunistic; hugeTLBfs and the LWK reach ~1.0).
  double large_page_coverage = 1.0;
  os::HeapBehavior heap = os::HeapBehavior::kCached;
  SimTime fault_base = SimTime::us(1);
  SimTime fault_large = SimTime::us(8);
  // Allocation churn (free + re-allocate) pricing per event: fixed syscall
  // work plus a per-MiB term (refaulting, page-table work, shootdowns);
  // lognormal tail captures compaction/khugepaged interference.
  SimTime churn_fixed = SimTime::us(2);
  SimTime churn_per_mib = SimTime::us(1);
  double churn_sigma = 0.05;
  double churn_max_factor = 20.0;
  // Residual kernel-path overhead on memory-bound execution (fault/IRQ
  // entry bookkeeping, cgroup accounting, deeper page-table formats) not
  // modeled individually; calibrated against the paper's small-scale
  // gaps. Zero on the LWK.
  double os_overhead = 0.0;
};

struct OsEnvironment {
  explicit OsEnvironment(hw::PlatformConfig p) : platform(std::move(p)) {}

  std::string name;
  hw::PlatformConfig platform;
  OsKind os = OsKind::kLinux;
  noise::AnalyticNoiseProfile profile;
  MemEnvModel mem;
  net::FabricParams fabric;
  net::RegistrationPath rdma_path = net::RegistrationPath::kLinuxNative;
  net::RdmaModelParams rdma;

  // Multiplier (>= 1) on a compute phase from address-translation
  // overhead, given the working set and this environment's page mix.
  double tlb_compute_factor(std::uint64_t working_set_bytes,
                            double mem_bound_fraction,
                            double coverage_hint = -1.0) const;

  // Median cost of churning (freeing + reallocating + refaulting) `bytes`.
  SimTime churn_median(std::uint64_t bytes) const;

  // Cost of first-touching `bytes` at this environment's page mix.
  SimTime fault_in(std::uint64_t bytes) const;
};

OsEnvironment make_ofp_linux_env();
OsEnvironment make_ofp_mckernel_env();
OsEnvironment make_fugaku_linux_env(const noise::Countermeasures& cm = {});
OsEnvironment make_fugaku_mckernel_env(bool picodriver = true);

}  // namespace hpcos::cluster
