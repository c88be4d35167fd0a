// RDMA memory-registration cost model (Tofu STAGs / OmniPath MRs).
//
// §5.1/§6.4: registration cost differs sharply by OS path —
//  * native Linux: ioctl into the driver, page-by-page pinning at the base
//    page size, with a heavy tail from mm locking and allocator state;
//  * McKernel without PicoDriver: the same work *plus* an offload
//    round-trip per call;
//  * McKernel with PicoDriver: LWK-local pin over large pages — short and
//    tight.
// The tail matters: at job start every rank registers its buffers and the
// job proceeds at the pace of the slowest rank, which is the mechanism
// behind GAMERA's scale-growing McKernel advantage (Fig. 7c).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/sim_time.h"
#include "hw/tlb.h"

namespace hpcos::net {

enum class RegistrationPath : std::uint8_t {
  kLinuxNative,         // ioctl into the host driver
  kMcKernelOffloaded,   // ioctl delegated through the proxy process
  kMcKernelPicoDriver,  // LWK-local split-driver fast path
};

struct RdmaModelParams {
  SimTime ioctl_base = SimTime::us(3);
  SimTime pin_per_page = SimTime::ns(250);
  hw::PageSize linux_pin_page = hw::PageSize::k64K;
  hw::PageSize lwk_pin_page = hw::PageSize::k2M;
  SimTime offload_roundtrip = SimTime::us(5);
  SimTime pico_base = SimTime::us(1);
  SimTime pico_per_page = SimTime::ns(150);
  // Lognormal sigma of the Linux path (driver lock + mm state dependence);
  // the LWK path is nearly deterministic.
  double linux_tail_sigma = 0.6;
  double lwk_tail_sigma = 0.05;
  // Hard cap on tail draws (e.g. a compaction stall during pinning).
  double tail_max_factor = 30.0;
};

class RdmaRegistrationModel {
 public:
  explicit RdmaRegistrationModel(RdmaModelParams params = {})
      : params_(params) {}

  const RdmaModelParams& params() const { return params_; }

  // Deterministic median cost of registering `bytes` via `path`.
  SimTime median_cost(RegistrationPath path, std::uint64_t bytes) const;

  // Worst of `k` independent registrations (what a barrier after setup
  // observes across ranks).
  SimTime sample_worst_of(RegistrationPath path, std::uint64_t bytes,
                          std::uint64_t k, RngStream& rng) const;

 private:
  double sigma_for(RegistrationPath path) const;

  RdmaModelParams params_;
};

}  // namespace hpcos::net
