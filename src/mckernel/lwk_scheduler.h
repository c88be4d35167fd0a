// McKernel's scheduler: tick-less, co-operative round-robin (§5).
//
// No timer interrupts, no wake-up preemption, no fairness bookkeeping —
// threads run until they block, yield, or exit. Combined with one-thread-
// per-core placement this is what makes the LWK noise-free by construction.
#pragma once

#include <vector>

#include "common/ring_fifo.h"
#include "hw/cpuset.h"
#include "obs/registry.h"
#include "oskernel/scheduler.h"

namespace hpcos::mck {

class LwkScheduler final : public os::Scheduler {
 public:
  LwkScheduler(std::size_t num_cores, hw::CpuSet owned_cores);

  hw::CoreId select_core(const os::Thread& thread,
                         const os::CoreLoad& load) override;
  void enqueue(hw::CoreId core, os::Thread& thread) override;
  os::ThreadId pick_next(hw::CoreId core) override;
  void remove(os::Thread& thread) override;
  std::size_t runnable_count(hw::CoreId core) const override;
  bool preempt_on_wakeup(const os::Thread& woken,
                         const os::Thread& running) const override;
  bool needs_tick(hw::CoreId core, bool core_busy) const override;
  bool should_resched_on_tick(hw::CoreId core, os::Thread& running) override;
  void charge(os::Thread& thread, SimTime elapsed) override;

  // Counts successful dispatches (lwk.sched.dispatches); set by McKernel
  // when a registry is wired.
  void set_dispatch_counter(obs::Counter* counter) {
    dispatch_counter_ = counter;
  }

 private:
  obs::Counter* dispatch_counter_ = nullptr;
  hw::CpuSet owned_;
  std::vector<RingFifo<os::Thread*>> queues_;  // FIFO round robin
};

}  // namespace hpcos::mck
