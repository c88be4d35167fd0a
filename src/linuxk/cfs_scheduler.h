// CFS-style fair scheduler model.
//
// Captures the behaviours the study depends on rather than the full CFS
// implementation: per-core runqueues ordered by virtual runtime, sleeper
// credit on wakeup (which is what lets a daemon preempt a long-running
// application thread), wake-up preemption, tick-driven rescheduling with a
// granularity, and nohz_full semantics (the tick is only needed on a
// nohz_full core while more than one task is runnable).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "hw/cpuset.h"
#include "oskernel/scheduler.h"

namespace hpcos::linuxk {

struct CfsParams {
  SimTime granularity = SimTime::ms(3);     // wakeup/resched granularity
  SimTime sleeper_credit = SimTime::ms(10); // vruntime credit on wakeup
};

class CfsScheduler final : public os::Scheduler {
 public:
  CfsScheduler(std::size_t num_cores, hw::CpuSet owned_cores,
               hw::CpuSet nohz_full_cores, CfsParams params, RngStream rng);

  hw::CoreId select_core(const os::Thread& thread,
                         const os::CoreLoad& load) override;
  void enqueue(hw::CoreId core, os::Thread& thread) override;
  os::ThreadId pick_next(hw::CoreId core) override;
  void remove(os::Thread& thread) override;
  std::size_t runnable_count(hw::CoreId core) const override;
  bool preempt_on_wakeup(const os::Thread& woken,
                         const os::Thread& running) const override;
  bool needs_tick(hw::CoreId core, bool core_busy) const override;
  bool should_resched_on_tick(hw::CoreId core,
                              os::Thread& running) override;
  void charge(os::Thread& thread, SimTime elapsed) override;

 private:
  struct Queue {
    std::vector<os::Thread*> threads;  // unordered; min-vruntime scan
    double min_vruntime = 0.0;         // monotonic fair clock
  };
  Queue& queue(hw::CoreId core);
  const Queue& queue(hw::CoreId core) const;

  hw::CpuSet owned_;
  hw::CpuSet nohz_full_;
  CfsParams params_;
  std::vector<Queue> queues_;
  RngStream rng_;
};

}  // namespace hpcos::linuxk
