#include "net/fabric.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

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

FabricParams params_for(hw::InterconnectKind kind) {
  return kind == hw::InterconnectKind::kTofuD ? make_tofud_params()
                                              : make_omnipath_params();
}

int Fabric::average_hops(std::int64_t nodes) const {
  HPCOS_CHECK(nodes >= 1);
  if (nodes == 1) return 0;
  if (params_.kind == hw::InterconnectKind::kTofuD) {
    // 6D mesh/torus: average distance grows with the 6th root of the node
    // count (each dimension's expected distance is ~dim/4).
    const double side = std::pow(static_cast<double>(nodes), 1.0 / 6.0);
    return std::max(1, static_cast<int>(std::ceil(1.5 * side)));
  }
  // Two-level fat tree: 1 hop within an edge switch (<= 32 nodes), 3 hops
  // through the core otherwise.
  return nodes <= 32 ? 1 : 3;
}

SimTime Fabric::p2p(std::uint64_t bytes, std::int64_t nodes) const {
  const int hops = average_hops(nodes);
  const double bw_sec = static_cast<double>(bytes) /
                        static_cast<double>(params_.bandwidth_bytes_per_sec);
  return params_.sw_overhead + params_.injection_overhead +
         params_.link_latency * hops + SimTime::from_sec(bw_sec);
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
