// Host memory observability: per-subsystem allocation counters and
// process RSS sampling.
//
// The ROADMAP's full-Fugaku scale item plans an arena/SoA conversion of
// the per-node state; this module establishes the measurement baseline it
// will be judged against. Two instruments:
//
//   * AllocCounter — an allocation site's pair of host-counter table
//     entries (obs/prof/counters.h), mem.<site>.bytes and
//     mem.<site>.events, bumped where the subsystem allocates (trace
//     rings, time-series buckets, campaign shard accumulators). The
//     --profile report folds them as host.mem.*.
//   * sample_host_memory() — current VmSize/VmRSS from /proc/self/statm
//     and peak RSS (VmHWM) from /proc/self/status. Returns valid=false
//     where procfs is unavailable.
#pragma once

#include <cstdint>
#include <string>

#include "obs/prof/counters.h"

namespace hpcos::obs::prof {

// Sites construct one per site and keep it (a function-local static):
//   static const prof::AllocCounter alloc("trace.ring");
//   alloc.add(bytes);
struct AllocCounter {
  explicit AllocCounter(const std::string& site)
      : bytes(host_counter("mem." + site + ".bytes")),
        events(host_counter("mem." + site + ".events")) {}
  void add(std::uint64_t n) const {
    bytes->add(n);
    events->add(1);
  }
  HostCounter* bytes;
  HostCounter* events;
};

struct HostMemory {
  std::uint64_t vm_bytes = 0;        // VmSize
  std::uint64_t rss_bytes = 0;       // VmRSS
  std::uint64_t peak_rss_bytes = 0;  // VmHWM (high-water mark)
  bool valid = false;
};
HostMemory sample_host_memory();

}  // namespace hpcos::obs::prof
