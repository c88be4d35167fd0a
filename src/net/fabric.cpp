#include "net/fabric.h"

namespace hpcos::net {

FabricParams make_tofud_params() {
  return FabricParams{
      .kind = hw::InterconnectKind::kTofuD,
      .sw_overhead = SimTime::ns(700),   // Tofu barrier-gate assisted
      .link_latency = SimTime::ns(120),
      // 6.8 GB/s per TNI direction; apps typically drive several TNIs, but
      // per-message modeling uses one.
      .bandwidth_bytes_per_sec = 6'800'000'000ull,
      .injection_overhead = SimTime::ns(150),
  };
}

FabricParams make_omnipath_params() {
  return FabricParams{
      .kind = hw::InterconnectKind::kOmniPath,
      .sw_overhead = SimTime::ns(1000),
      .link_latency = SimTime::ns(150),
      .bandwidth_bytes_per_sec = 12'300'000'000ull,  // 100 Gb/s
      .injection_overhead = SimTime::ns(300),
  };
}

SimTime Fabric::halo_exchange(std::uint64_t bytes_per_neighbor,
                              int neighbors) const {
  if (neighbors <= 0) return SimTime::zero();
  // Neighbor links are distinct; transfers overlap but injection is
  // serialized at the NIC: overhead per message plus one transfer time.
  const double bw_sec =
      static_cast<double>(bytes_per_neighbor) /
      static_cast<double>(params_.bandwidth_bytes_per_sec);
  return (params_.sw_overhead + params_.injection_overhead) * neighbors +
         params_.link_latency * 2 + SimTime::from_sec(bw_sec);
}

}  // namespace hpcos::net
