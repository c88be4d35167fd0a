// Scheduler policy interface.
//
// Two implementations exist: linuxk::CfsScheduler (fair, tick-driven,
// wake-preempting, load-balancing across allowed cores) and
// mckernel::LwkScheduler (tick-less cooperative round-robin, §5). The
// NodeKernel machinery is policy-free and consults this interface at every
// decision point.
#pragma once

#include <cstddef>

#include "hw/ids.h"
#include "oskernel/thread.h"

namespace hpcos::os {

// Runnable + running thread count of one core, computed when asked, so a
// placement pays only for the cores it looks at.
class CoreLoad {
 public:
  virtual std::size_t at(hw::CoreId core) const = 0;

 protected:
  ~CoreLoad() = default;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Pick the core a newly-runnable thread should be queued on: one in
  // thread.affinity that this scheduler owns. `load` answers for owned
  // cores only.
  virtual hw::CoreId select_core(const Thread& thread,
                                 const CoreLoad& load) = 0;

  // Queue the thread on `core` and record it in thread.queued_on.
  virtual void enqueue(hw::CoreId core, Thread& thread) = 0;
  // Pop the next thread to run on `core`; kInvalidThread when idle.
  virtual ThreadId pick_next(hw::CoreId core) = 0;
  // Remove a thread from any queue it is on (exit or re-placement).
  virtual void remove(Thread& thread) = 0;

  virtual std::size_t runnable_count(hw::CoreId core) const = 0;

  // Should `woken` immediately preempt `running` on the same core?
  // (CFS wake-up preemption: yes for freshly woken sleepers; LWK: never.)
  virtual bool preempt_on_wakeup(const Thread& woken,
                                 const Thread& running) const = 0;

  // Tick policy: whether a periodic tick must run on this core right now
  // (queue depth drives nohz_full's "tick restored when >1 runnable").
  virtual bool needs_tick(hw::CoreId core, bool core_busy) const = 0;
  // Invoked from the timer tick: decide whether the running thread should
  // be switched out in favor of a queued one.
  virtual bool should_resched_on_tick(hw::CoreId core, Thread& running) = 0;

  // Charge `elapsed` of execution to the thread (vruntime bookkeeping).
  virtual void charge(Thread& thread, SimTime elapsed) = 0;
};

}  // namespace hpcos::os
