#include "cluster/osenv.h"

#include <algorithm>

#include "hw/tlb.h"

namespace hpcos::cluster {

double OsEnvironment::tlb_compute_factor(std::uint64_t working_set_bytes,
                                         double mem_bound_fraction,
                                         double coverage_hint) const {
  const hw::TlbModel tlb(platform.tlb);
  const double large =
      tlb.access_slowdown(working_set_bytes, mem.large_page);
  const double base = tlb.access_slowdown(working_set_bytes, mem.base_page);
  // Hints can only raise coverage (a code cannot demote hugeTLBfs pages).
  const double coverage = std::max(mem.large_page_coverage, coverage_hint);
  const double mix =
      (coverage * large + (1.0 - coverage) * base) *
      (1.0 + mem.os_overhead);
  return 1.0 + mem_bound_fraction * (mix - 1.0);
}

SimTime OsEnvironment::churn_median(std::uint64_t bytes) const {
  if (bytes == 0) return SimTime::zero();
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  return mem.churn_fixed + mem.churn_per_mib.scaled(mib);
}

SimTime OsEnvironment::fault_in(std::uint64_t bytes) const {
  if (bytes == 0) return SimTime::zero();
  const double large_bytes =
      static_cast<double>(bytes) * mem.large_page_coverage;
  const double base_bytes = static_cast<double>(bytes) - large_bytes;
  const double large_faults =
      large_bytes / static_cast<double>(hw::bytes(mem.large_page));
  const double base_faults =
      base_bytes / static_cast<double>(hw::bytes(mem.base_page));
  return mem.fault_large.scaled(large_faults) +
         mem.fault_base.scaled(base_faults);
}

OsEnvironment make_ofp_linux_env() {
  OsEnvironment e(hw::make_ofp_platform());
  e.name = "OFP/Linux";
  e.os = OsKind::kLinux;
  e.profile = noise::ofp_linux_profile();
  e.mem = MemEnvModel{
      .base_page = hw::PageSize::k4K,
      .large_page = hw::PageSize::k2M,
      // THP on CentOS 7 promotes opportunistically; compaction failures
      // and unaligned heaps leave a sizable 4K remainder.
      .large_page_coverage = 0.70,
      .heap = os::HeapBehavior::kReleaseToOs,
      .fault_base = SimTime::from_us(1.8),
      .fault_large = SimTime::us(12),
      // glibc releases big blocks: re-allocation refaults THP pages and
      // shoots down sibling TLBs; khugepaged/compaction gives a fat tail.
      .churn_fixed = SimTime::us(8),
      .churn_per_mib = SimTime::from_us(7.5),
      .churn_sigma = 0.45,
      .churn_max_factor = 8.0,
      .os_overhead = 0.03,  // CentOS 7.3-era kernel paths
  };
  e.fabric = net::make_omnipath_params();
  e.rdma_path = net::RegistrationPath::kLinuxNative;
  // OmniPath MR registration pins at the x86 base page size.
  e.rdma.linux_pin_page = hw::PageSize::k4K;
  e.rdma.pin_per_page = SimTime::ns(150);
  return e;
}

OsEnvironment make_ofp_mckernel_env() {
  OsEnvironment e(hw::make_ofp_platform());
  e.name = "OFP/McKernel";
  e.os = OsKind::kMcKernel;
  e.profile = noise::ofp_mckernel_profile();
  e.mem = MemEnvModel{
      .base_page = hw::PageSize::k4K,
      .large_page = hw::PageSize::k2M,
      .large_page_coverage = 1.0,  // large-page-first memory manager
      .heap = os::HeapBehavior::kCached,
      .fault_base = SimTime::ns(600),
      .fault_large = SimTime::us(2),
      // Retained physical memory: churn is two cheap local syscalls.
      .churn_fixed = SimTime::us(2),
      .churn_per_mib = SimTime::ns(120),
      .churn_sigma = 0.05,
      .churn_max_factor = 3.0,
  };
  e.fabric = net::make_omnipath_params();
  // No Tofu on OFP; the OmniPath PicoDriver ([16]) is the analogue and was
  // deployed there, so registration is LWK-local as well.
  e.rdma_path = net::RegistrationPath::kMcKernelPicoDriver;
  return e;
}

OsEnvironment make_fugaku_linux_env(const noise::Countermeasures& cm) {
  OsEnvironment e(hw::make_fugaku_platform());
  e.name = "Fugaku/Linux";
  e.os = OsKind::kLinux;
  e.profile = noise::fugaku_linux_profile(cm);
  e.mem = MemEnvModel{
      .base_page = hw::PageSize::k64K,
      .large_page = hw::PageSize::k2M,  // contiguous-bit groups
      .large_page_coverage = 1.0,       // hugeTLBfs everywhere (§4.1.3)
      .heap = os::HeapBehavior::kCached,  // Fugaku runtime caches arenas
      .fault_base = SimTime::us(1),
      .fault_large = SimTime::us(8),
      .churn_fixed = SimTime::us(3),
      .churn_per_mib = SimTime::ns(900),
      .churn_sigma = 0.25,
      .churn_max_factor = 8.0,
      .os_overhead = 0.03,  // tuned RHEL 8: small residual kernel cost
  };
  e.fabric = net::make_tofud_params();
  e.rdma_path = net::RegistrationPath::kLinuxNative;
  // The Tofu driver pins at base-page granularity regardless of the
  // hugeTLBfs backing (get_user_pages walks 64K PTEs).
  e.rdma.linux_pin_page = hw::PageSize::k64K;
  return e;
}

OsEnvironment make_fugaku_mckernel_env(bool picodriver) {
  OsEnvironment e(hw::make_fugaku_platform());
  e.name = "Fugaku/McKernel";
  e.os = OsKind::kMcKernel;
  e.profile = noise::fugaku_mckernel_profile();
  e.mem = MemEnvModel{
      .base_page = hw::PageSize::k64K,
      .large_page = hw::PageSize::k2M,
      .large_page_coverage = 1.0,
      .heap = os::HeapBehavior::kCached,
      .fault_base = SimTime::ns(600),
      .fault_large = SimTime::us(2),
      .churn_fixed = SimTime::us(2),
      .churn_per_mib = SimTime::ns(120),
      .churn_sigma = 0.05,
      .churn_max_factor = 3.0,
  };
  e.fabric = net::make_tofud_params();
  e.rdma_path = picodriver ? net::RegistrationPath::kMcKernelPicoDriver
                           : net::RegistrationPath::kMcKernelOffloaded;
  return e;
}

}  // namespace hpcos::cluster
