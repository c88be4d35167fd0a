// Last-level cache parameters (Table 1), held by PlatformConfig::cache.
//
// Fugaku partitions L2 cache blocks into a system sector and an application
// sector ("sector cache", §4.2) so that OS activity on the assistant cores
// cannot evict application working sets. The platforms record the sector
// count; no workload cost model reads these parameters.
#pragma once

#include <cstdint>

#include "common/sim_time.h"

namespace hpcos::hw {

struct CacheParams {
  std::uint64_t capacity_bytes = 0;
  int num_sectors = 1;        // A64FX supports sector partitioning; 1 = none
  SimTime hit_latency = SimTime::ns(10);
  SimTime miss_latency = SimTime::ns(90);
};

}  // namespace hpcos::hw
