// Performance Monitoring Unit model.
//
// Two roles in the study: (1) the user/kernel instruction+cycle counters the
// paper uses to attribute noise to software vs hardware causes (§4.2.2);
// (2) the TCS job-manager's periodic PMU collection, which read counters on
// ALL cores via IPIs and was itself a noise source until a per-job opt-out
// was added (§4.2.1).
#pragma once

#include <array>
#include <cstdint>

#include "common/sim_time.h"

namespace hpcos::hw {

enum class PmuEvent : int {
  kCycles = 0,
  kInstructionsUser,
  kInstructionsKernel,
  kFlops,
  kMemReads,
  kMemWrites,
  kSleepCycles,
  kCount
};

struct PmuCounters {
  std::array<std::uint64_t, static_cast<int>(PmuEvent::kCount)> values{};

  std::uint64_t get(PmuEvent e) const {
    return values[static_cast<int>(e)];
  }
  void add(PmuEvent e, std::uint64_t delta) {
    values[static_cast<int>(e)] += delta;
  }
};

struct PmuParams {
  // Local counter read (mrs / rdpmc path).
  SimTime local_read_cost = SimTime::ns(100);
  // Cost borne by an interrupted core when its counters are read remotely
  // through an IPI (what TCS's collector imposed on application cores).
  SimTime remote_read_interrupt_cost = SimTime::us(25);
};

}  // namespace hpcos::hw
