// The simulated Linux kernel.
//
// Assembles the full-weight-kernel behaviours the paper tunes and measures:
// CFS scheduling with timer ticks and nohz_full, background activity
// (daemons, kworkers, blk-mq, PMU collection, sar), cgroup-based CPU and
// memory isolation, virtual NUMA nodes, THP / hugeTLBfs large-page backing
// with the surplus-page cgroup charge hook, and the three remote-TLB
// invalidation strategies of §4.2.2.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "noise/background.h"
#include "linuxk/cfs_scheduler.h"
#include "linuxk/cgroup.h"
#include "linuxk/config.h"
#include "linuxk/hugetlbfs.h"
#include "linuxk/vnuma.h"
#include "oskernel/kernel.h"
#include "oskernel/stall_bus.h"

namespace hpcos::linuxk {

class LinuxKernel final : public os::NodeKernel {
 public:
  LinuxKernel(sim::Simulator& simulator, const hw::NodeTopology& topology,
              hw::CpuSet owned_cores, LinuxConfig config, Seed seed,
              sim::TraceBuffer* trace = nullptr,
              os::ChipStallBus* stall_bus = nullptr);

  std::string name() const override { return "linux"; }

  // Start timer ticks and the background-activity generators. Must be
  // called before threads are expected to experience OS noise.
  void boot();
  bool booted() const { return booted_; }

  const LinuxConfig& config() const { return config_; }
  CgroupManager& cgroups() { return cgroups_; }
  HugeTlbFs& hugetlbfs() { return hugetlbfs_; }
  VirtualNuma& vnuma() { return vnuma_; }

  // ---- memory services used by workload models ----

  // Page size policy for a new mapping of `length` by `proc` (§4.1.3):
  // hugeTLBfs page when configured and requested, THP promotion when the
  // region is large enough, else the base page size.
  hw::PageSize select_page_size(const os::Process& proc,
                                std::uint64_t length,
                                bool prefer_large) const;

  // Remote-TLB invalidation for `flushes` page invalidations by `proc`
  // initiated from `initiator`. Returns the initiator-side cost; victim
  // cores are stalled/interrupted as a side effect per the flush mode.
  // When tracing, records a "tlb:shootdown" span tree (local flush plus
  // victim-stall or IPI children), parented under `parent_span` if nonzero.
  SimTime tlb_shootdown(const os::Process& proc, hw::CoreId initiator,
                        std::uint64_t flushes, std::uint64_t parent_span = 0);

  // POSIX signal delivery (kill): wakes blocked targets with EINTR,
  // interrupts running ones (signal-frame setup on their core).
  void send_signal(os::ThreadId target);

  // Event counts since construction (the node's linux.* counters).
  std::uint64_t total_syscalls() const { return syscalls_; }
  std::uint64_t total_page_faults() const { return page_faults_; }
  std::uint64_t total_tlb_shootdowns() const { return shootdowns_; }
  std::uint64_t total_tlb_shootdown_ipis() const { return shootdown_ipis_; }
  std::uint64_t total_ticks() const { return ticks_fired_; }

 protected:
  os::Scheduler& sched() override { return cfs_; }
  SyscallDisposition handle_syscall(os::Thread& thread,
                                    const os::SyscallRequest& req) override;
  void on_thread_exit(os::Thread& thread) override;
  void on_core_activated(hw::CoreId core) override;
  void on_thread_enqueued(hw::CoreId core) override;

 private:
  struct TickState {
    bool armed = false;
    bool full = false;  // full tick vs 1 Hz residual (nohz_full)
    sim::EventId event;
  };
  void arm_tick(hw::CoreId core);
  void tick_fired(hw::CoreId core);
  // Upgrade a residual-mode tick to full cadence (a second task became
  // runnable on a nohz_full core).
  void ensure_full_tick(hw::CoreId core);

  SyscallDisposition do_mmap(os::Thread& thread, const os::SyscallArgs& args);
  SyscallDisposition do_munmap(os::Thread& thread,
                               const os::SyscallArgs& args);

  // Record a "fault:<kind>" span with populate / vnuma-remote children for
  // a batch of `faults` page faults. Returns the root span id (0 when
  // tracing is off or the batch is empty).
  std::uint64_t record_fault_spans(hw::CoreId core, os::FaultKind kind,
                                   std::uint64_t faults, SimTime base_cost,
                                   SimTime vnuma_extra,
                                   std::uint64_t parent = 0);

  LinuxConfig config_;
  CfsScheduler cfs_;
  CgroupManager cgroups_;
  HugeTlbFs hugetlbfs_;
  VirtualNuma vnuma_;
  hw::TlbModel tlb_model_;
  os::ChipStallBus* stall_bus_;
  std::unique_ptr<noise::BackgroundActivity> background_;
  RngStream rng_;
  std::vector<TickState> ticks_;
  bool booted_ = false;

  // hugeTLBfs backing per mapping, keyed by (pid, start address), so
  // munmap can return pages to the pool and uncharge the cgroup.
  std::map<std::pair<os::Pid, std::uint64_t>, HugeTlbFs::AllocResult>
      hugetlb_backing_;

  std::uint64_t syscalls_ = 0;
  std::uint64_t page_faults_ = 0;
  std::uint64_t shootdowns_ = 0;
  std::uint64_t shootdown_ipis_ = 0;
  std::uint64_t ticks_fired_ = 0;
};

}  // namespace hpcos::linuxk
