// Interconnect fabric model: TofuD and OmniPath.
//
// A LogGP-flavoured cost model: per-message latency (wire + switch hops +
// software overhead) plus a bandwidth term. Absolute values are
// representative published figures; the study's comparisons are between
// OSes on the *same* fabric, so only consistency matters.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_time.h"
#include "hw/platform.h"

namespace hpcos::net {

struct FabricParams {
  hw::InterconnectKind kind = hw::InterconnectKind::kTofuD;
  SimTime sw_overhead = SimTime::ns(800);   // per-message software cost
  SimTime link_latency = SimTime::ns(100);  // per-hop wire+switch latency
  std::uint64_t bandwidth_bytes_per_sec = 0;
  // Extra latency per hop in software-visible routing (rendezvous etc.)
  SimTime injection_overhead = SimTime::ns(200);
};

FabricParams make_tofud_params();
FabricParams make_omnipath_params();

class Fabric {
 public:
  explicit Fabric(FabricParams params) : params_(params) {}

  const FabricParams& params() const { return params_; }

  // Nearest-neighbor exchange time: the rank sends/receives `bytes` with
  // each of `neighbors` peers (overlapped; cost = max of link serials).
  SimTime halo_exchange(std::uint64_t bytes_per_neighbor,
                        int neighbors) const;

 private:
  FabricParams params_;
};

}  // namespace hpcos::net
