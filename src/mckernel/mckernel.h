// McKernel: the lightweight co-kernel (§5).
//
// Implements only the performance-sensitive system calls — memory
// management (large-page-first, per-process retained physical memory),
// threads and the co-operative tick-less scheduler, POSIX signaling —
// and delegates everything else to Linux through the proxy process (see
// offload.h). Runs a Linux-compatible ABI: the same ThreadBody workloads
// run unmodified on either kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "mckernel/config.h"
#include "mckernel/lwk_scheduler.h"
#include "mckernel/picodriver.h"
#include "noise/background.h"
#include "oskernel/kernel.h"
#include "oskernel/stall_bus.h"

namespace hpcos::mck {

class SyscallOffloader;

class McKernel final : public os::NodeKernel {
 public:
  McKernel(sim::Simulator& simulator, const hw::NodeTopology& topology,
           hw::CpuSet owned_cores, McKernelConfig config, Seed seed,
           sim::TraceBuffer* trace = nullptr,
           os::ChipStallBus* stall_bus = nullptr);

  std::string name() const override { return "mckernel"; }

  // Start the residual hardware-floor generators. (There is nothing else
  // to start: no ticks, no daemons.)
  void boot();
  bool booted() const { return booted_; }

  // Wire the delegation path; without it, non-local syscalls fail hard.
  void set_offloader(SyscallOffloader* offloader) { offloader_ = offloader; }

  // Register the LWK's counters (lwk.syscalls.local/.offloaded,
  // lwk.stag.registrations, lwk.page_faults, lwk.sched.dispatches).
  // nullptr detaches; hot paths keep exactly one branch either way.
  void set_registry(obs::Registry* registry);

  const McKernelConfig& config() const { return config_; }
  PicoDriver& picodriver() { return pico_; }

  // The LWK's local syscall set (§5: "McKernel implements only a small set
  // of performance sensitive system calls").
  static bool is_local_syscall(os::Syscall no);

  // POSIX signal delivery: wakes blocked targets (EINTR), interrupts
  // running ones.
  void send_signal(os::ThreadId target);

  std::uint64_t local_syscalls() const { return local_count_; }
  std::uint64_t offloaded_syscalls() const { return offload_count_; }

 protected:
  os::Scheduler& sched() override { return lwk_sched_; }
  SyscallDisposition handle_syscall(os::Thread& thread,
                                    const os::SyscallRequest& req) override;
  void on_thread_exit(os::Thread& thread) override;

 private:
  SyscallDisposition do_mmap(os::Thread& thread, const os::SyscallArgs& args);
  SyscallDisposition do_munmap(os::Thread& thread,
                               const os::SyscallArgs& args);

  // Record a "fault:<kind>" span with a populate child for `faults` page
  // faults costing `cost` in total. No-op without an enabled trace.
  void record_fault_spans(hw::CoreId core, os::FaultKind kind,
                          std::uint64_t faults, SimTime cost);

  McKernelConfig config_;
  LwkScheduler lwk_sched_;
  PicoDriver pico_;
  SyscallOffloader* offloader_ = nullptr;
  std::unique_ptr<noise::BackgroundActivity> background_;
  RngStream rng_;
  bool booted_ = false;

  std::unordered_map<os::Pid, std::uint64_t> process_pool_;
  std::uint64_t local_count_ = 0;
  std::uint64_t offload_count_ = 0;

  obs::Counter* local_counter_ = nullptr;
  obs::Counter* offload_counter_ = nullptr;
  obs::Counter* stag_counter_ = nullptr;
  obs::Counter* fault_counter_ = nullptr;
};

}  // namespace hpcos::mck
