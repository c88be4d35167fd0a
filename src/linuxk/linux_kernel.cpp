#include "linuxk/linux_kernel.h"

#include <algorithm>

namespace hpcos::linuxk {
namespace {

// app / system byte split for the vNUMA model, derived from the topology's
// NUMA description.
std::pair<std::uint64_t, std::uint64_t> memory_split(
    const hw::NodeTopology& topology) {
  std::uint64_t app = 0;
  std::uint64_t sys = 0;
  for (const auto& d : topology.numa_domains()) {
    (d.is_system_domain ? sys : app) += d.memory_bytes;
  }
  if (sys == 0) sys = 1ull << 30;  // conventional layout: nominal slice
  return {app, sys};
}

bool topology_has_system_domain(const hw::NodeTopology& topology) {
  for (const auto& d : topology.numa_domains()) {
    if (d.is_system_domain) return true;
  }
  return false;
}

}  // namespace

LinuxKernel::LinuxKernel(sim::Simulator& simulator,
                         const hw::NodeTopology& topology,
                         hw::CpuSet owned_cores, LinuxConfig config,
                         Seed seed, sim::TraceBuffer* trace,
                         os::ChipStallBus* stall_bus)
    : NodeKernel(simulator, topology, owned_cores, config.costs, trace),
      config_(std::move(config)),
      cfs_(static_cast<std::size_t>(topology.logical_cores()),
           this->owned_cores(), config_.nohz_full_cores,
           CfsParams{config_.cfs_sched_granularity,
                     config_.cfs_sleeper_credit},
           RngStream(seed, /*stream=*/0xCF5)),
      hugetlbfs_(config_.hugetlbfs),
      vnuma_(topology_has_system_domain(topology),
             memory_split(topology).first, memory_split(topology).second),
      tlb_model_(config_.tlb),
      stall_bus_(stall_bus),
      rng_(seed, /*stream=*/0x11A0),
      ticks_(static_cast<std::size_t>(topology.logical_cores())) {
  if (stall_bus_ != nullptr) stall_bus_->attach(*this);
}

void LinuxKernel::boot() {
  HPCOS_CHECK_MSG(!booted_, "LinuxKernel::boot called twice");
  booted_ = true;
  // Background activity lands on the application cores this kernel owns.
  const hw::CpuSet noise_targets =
      owned_cores() & topology().application_cores();
  background_ = std::make_unique<noise::BackgroundActivity>(
      *this, config_.profile, noise_targets,
      owned_cores() & config_.system_cores, stall_bus_, rng_.split(1));
  background_->start();
  // Arm ticks on cores that are already busy; idle cores arm on dispatch.
  for (hw::CoreId core : owned_cores().to_vector()) {
    if (!core_idle(core)) arm_tick(core);
  }
}

// ---- tick driver ----

void LinuxKernel::arm_tick(hw::CoreId core) {
  if (!booted_) return;
  TickState& ts = ticks_[static_cast<std::size_t>(core)];
  if (ts.armed) return;
  ts.armed = true;
  ts.full = cfs_.needs_tick(core, /*core_busy=*/true);
  const SimTime period =
      ts.full ? config_.tick_period : config_.residual_tick_period;
  ts.event = simulator().schedule_after(
      period, [this, core] { tick_fired(core); }, "linux.tick");
}

void LinuxKernel::ensure_full_tick(hw::CoreId core) {
  TickState& ts = ticks_[static_cast<std::size_t>(core)];
  if (!ts.armed || ts.full) return;
  // Cancel the pending residual tick and restart at full cadence.
  simulator().cancel(ts.event);
  ts.full = true;
  ts.event = simulator().schedule_after(
      config_.tick_period, [this, core] { tick_fired(core); }, "linux.tick");
}

void LinuxKernel::tick_fired(hw::CoreId core) {
  TickState& ts = ticks_[static_cast<std::size_t>(core)];
  ts.event = sim::EventId{};
  if (core_idle(core)) {
    // nohz idle: the tick parks until the next dispatch.
    ts.armed = false;
    return;
  }
  const SimTime cost =
      ts.full ? costs().tick_duration : costs().residual_tick_duration;
  obs::bump(tick_counter_);
  interrupt_core(core, cost, sim::TraceCategory::kTimerTick,
                 ts.full ? "tick" : "residual-tick");
  if (ts.full) {
    const os::ThreadId running = running_on(core);
    if (running != os::kInvalidThread &&
        cfs_.should_resched_on_tick(core, thread_ref(running))) {
      request_resched(core);
    }
  }
  ts.full = cfs_.needs_tick(core, /*core_busy=*/true);
  const SimTime period =
      ts.full ? config_.tick_period : config_.residual_tick_period;
  ts.event = simulator().schedule_after(
      period, [this, core] { tick_fired(core); }, "linux.tick");
}

void LinuxKernel::on_core_activated(hw::CoreId core) { arm_tick(core); }

void LinuxKernel::on_thread_enqueued(hw::CoreId core) {
  if (cfs_.runnable_count(core) > 0) ensure_full_tick(core);
}

// ---- syscalls ----

void LinuxKernel::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    syscall_counter_ = nullptr;
    fault_counter_ = nullptr;
    shootdown_counter_ = nullptr;
    shootdown_ipi_counter_ = nullptr;
    tick_counter_ = nullptr;
    set_interrupt_ns_counter(nullptr);
    return;
  }
  set_interrupt_ns_counter(registry->counter("linux.interrupt_ns"));
  syscall_counter_ = registry->counter("linux.syscalls");
  fault_counter_ = registry->counter("linux.page_faults");
  shootdown_counter_ = registry->counter("linux.tlb.shootdowns");
  shootdown_ipi_counter_ = registry->counter("linux.tlb.shootdown_ipis");
  tick_counter_ = registry->counter("linux.ticks");
}

os::NodeKernel::SyscallDisposition LinuxKernel::handle_syscall(
    os::Thread& thread, const os::SyscallRequest& req) {
  using S = os::Syscall;
  obs::bump(syscall_counter_);
  switch (req.no) {
    case S::kMmap:
      return do_mmap(thread, req.args);
    case S::kMunmap:
      return do_munmap(thread, req.args);

    case S::kNanosleep: {
      SyscallDisposition d;
      d.kind = SyscallDisposition::Kind::kBlocked;
      const os::ThreadId tid = thread.tid;
      const auto dt = SimTime::ns(static_cast<std::int64_t>(req.args.arg0));
      simulator().schedule_after(
          dt + config_.syscalls.get(S::kNanosleep),
          [this, tid] {
            os::SyscallResult r;
            r.ok = true;
            complete_blocked_syscall(tid, r);
          },
          "linux.sleep.wake");
      return d;
    }

    case S::kFutex: {
      if (req.args.arg0 == 0) {
        // FUTEX_WAIT: parked until an external complete_blocked_syscall.
        SyscallDisposition d;
        d.kind = SyscallDisposition::Kind::kBlocked;
        return d;
      }
      break;  // FUTEX_WAKE etc.: plain inline cost
    }

    case S::kKill:
      send_signal(static_cast<os::ThreadId>(req.args.arg0));
      break;

    case S::kIoctl:
      if (req.args.arg2 == os::kTofuRegisterStag ||
          req.args.arg2 == os::kTofuDeregisterStag) {
        // Tofu driver STAG path: pin (or unpin) the buffer page by page
        // at the base page size (§5.1).
        const std::uint64_t pages =
            (req.args.arg1 + hw::bytes(config_.base_page_size) - 1) /
            hw::bytes(config_.base_page_size);
        SyscallDisposition d;
        d.service_time =
            config_.syscalls.get(S::kIoctl) +
            config_.tofu_pin_per_page.scaled(
                req.args.arg2 == os::kTofuRegisterStag ? 1.0 : 0.3) *
                static_cast<std::int64_t>(pages);
        d.result.ok = true;
        d.result.path = os::SyscallResult::Path::kLocal;
        return d;
      }
      break;

    default:
      break;
  }
  SyscallDisposition d;
  d.service_time = config_.syscalls.get(req.no);
  d.result.ok = true;
  d.result.path = os::SyscallResult::Path::kLocal;
  return d;
}

hw::PageSize LinuxKernel::select_page_size(const os::Process& proc,
                                           std::uint64_t length,
                                           bool prefer_large) const {
  const bool wants_huge =
      prefer_large ||
      proc.attrs.preferred_page_size == config_.hugetlbfs.page_size;
  if (config_.hugetlbfs.enabled && wants_huge) {
    return config_.hugetlbfs.page_size;
  }
  if (config_.thp_enabled && length >= hw::bytes(hw::PageSize::k2M)) {
    return hw::PageSize::k2M;  // THP promotes large anonymous regions
  }
  return config_.base_page_size;
}

os::NodeKernel::SyscallDisposition LinuxKernel::do_mmap(
    os::Thread& thread, const os::SyscallArgs& args) {
  const std::uint64_t length = args.arg0;
  const bool prefer_large = (args.arg1 & 1) != 0;
  os::Process& proc = process(thread.pid);

  hw::PageSize page = select_page_size(proc, length, prefer_large);
  HugeTlbFs::AllocResult backing;
  if (config_.hugetlbfs.enabled && page == config_.hugetlbfs.page_size) {
    const std::uint64_t pages =
        (length + hw::bytes(page) - 1) / hw::bytes(page);
    backing = hugetlbfs_.allocate(pages, cgroups_.memory_cgroup_of(proc.pid));
    if (!backing.ok) page = config_.base_page_size;  // pool/limit exhausted
  }

  const os::PagingPolicy policy = proc.attrs.paging;
  const std::uint64_t addr = proc.address_space.map(length, page, policy);
  if (backing.ok) hugetlb_backing_[{proc.pid, addr}] = backing;
  vnuma_.allocate(MemRegion::kApplication, length);

  SyscallDisposition d;
  d.service_time = config_.syscalls.get(os::Syscall::kMmap);
  if (policy == os::PagingPolicy::kPrePopulate) {
    const auto it = proc.address_space.areas().find(addr);
    const std::uint64_t faults = it->second.populated_pages;
    const SimTime per_fault = page == config_.base_page_size
                                  ? costs().page_fault_base
                                  : costs().page_fault_large;
    const SimTime base_cost = per_fault * static_cast<std::int64_t>(faults);
    const SimTime total_cost =
        per_fault.scaled(vnuma_.app_fault_factor()) *
        static_cast<std::int64_t>(faults);
    d.service_time += total_cost;
    page_faults_ += faults;
    obs::bump(fault_counter_, faults);
    record_fault_spans(thread.core,
                       os::classify_fault(page, config_.base_page_size),
                       faults, base_cost, total_cost - base_cost);
  }
  d.result.ok = true;
  d.result.value = static_cast<std::int64_t>(addr);
  return d;
}

os::NodeKernel::SyscallDisposition LinuxKernel::do_munmap(
    os::Thread& thread, const os::SyscallArgs& args) {
  const std::uint64_t addr = args.arg0;
  const std::uint64_t length = args.arg1;
  os::Process& proc = process(thread.pid);

  const auto res = proc.address_space.unmap(addr, length);
  vnuma_.free(MemRegion::kApplication, length);

  // Return hugeTLBfs backing (full-area unmaps only; partial unmaps of
  // hugetlb areas are not used by the workloads).
  if (auto it = hugetlb_backing_.find({proc.pid, addr});
      it != hugetlb_backing_.end()) {
    hugetlbfs_.release(it->second, cgroups_.memory_cgroup_of(proc.pid));
    hugetlb_backing_.erase(it);
  }

  SyscallDisposition d;
  const SimTime pages_cost =
      costs().unmap_per_page * static_cast<std::int64_t>(res.pages_released);
  d.service_time = config_.syscalls.get(os::Syscall::kMunmap) + pages_cost;

  // Root the shootdown subtree under an "unmap:munmap" span so the viewer
  // shows the whole release (page teardown + TLB invalidation) as one tree.
  sim::TraceBuffer* tb = trace();
  const bool tracing = tb != nullptr && tb->enabled();
  const std::uint64_t root = tracing ? tb->new_span() : 0;
  const SimTime start = simulator().now();
  d.service_time += tlb_shootdown(proc, thread.core, res.tlb_flushes, root);
  if (tracing) {
    tb->record(sim::TraceRecord{.time = start,
                                .core = thread.core,
                                .category = sim::TraceCategory::kSyscall,
                                .duration = d.service_time,
                                .label = "unmap:munmap",
                                .span = root,
                                .parent = 0});
    tb->record(sim::TraceRecord{.time = start,
                                .core = thread.core,
                                .category = sim::TraceCategory::kSyscall,
                                .duration = pages_cost,
                                .label = "unmap:pages",
                                .span = tb->new_span(),
                                .parent = root});
  }
  d.result.ok = true;
  return d;
}

std::uint64_t LinuxKernel::record_fault_spans(hw::CoreId core,
                                              os::FaultKind kind,
                                              std::uint64_t faults,
                                              SimTime base_cost,
                                              SimTime vnuma_extra,
                                              std::uint64_t parent) {
  sim::TraceBuffer* tb = trace();
  if (tb == nullptr || !tb->enabled() || faults == 0) return 0;
  const SimTime start = simulator().now();
  const std::uint64_t root = tb->new_span();
  tb->record(sim::TraceRecord{.time = start,
                              .core = core,
                              .category = sim::TraceCategory::kPageFault,
                              .duration = base_cost + vnuma_extra,
                              .label = "fault:" + os::to_string(kind),
                              .span = root,
                              .parent = parent});
  tb->record(sim::TraceRecord{.time = start,
                              .core = core,
                              .category = sim::TraceCategory::kPageFault,
                              .duration = base_cost,
                              .label = "fault:populate",
                              .span = tb->new_span(),
                              .parent = root});
  if (vnuma_extra > SimTime::zero()) {
    tb->record(sim::TraceRecord{.time = start + base_cost,
                                .core = core,
                                .category = sim::TraceCategory::kPageFault,
                                .duration = vnuma_extra,
                                .label = "fault:vnuma-remote",
                                .span = tb->new_span(),
                                .parent = root});
  }
  return root;
}

SimTime LinuxKernel::tlb_shootdown(const os::Process& proc,
                                   hw::CoreId initiator,
                                   std::uint64_t flushes,
                                   std::uint64_t parent_span) {
  if (flushes == 0) return SimTime::zero();
  ++shootdowns_;
  obs::bump(shootdown_counter_);

  SimTime local_cost = SimTime::zero();
  SimTime victim_stall = SimTime::zero();  // per-victim broadcast penalty
  SimTime ipi_wait = SimTime::zero();      // initiator ack busy-wait
  int ipi_victims = 0;

  switch (config_.tlb_flush) {
    case TlbFlushMode::kBroadcastPatched:
      if (proc.single_core()) {
        // RHEL 8.2 fix: single-core mms flush locally, nothing broadcast.
        local_cost = tlb_model_.local_flush(flushes);
        break;
      }
      [[fallthrough]];
    case TlbFlushMode::kBroadcast: {
      victim_stall = tlb_model_.broadcast_stall(flushes);
      if (stall_bus_ != nullptr) {
        stall_bus_->broadcast_stall(initiator, victim_stall,
                                    sim::TraceCategory::kTlbShootdown,
                                    "tlbi-bcast");
      } else {
        stall_all_cores_except(initiator, victim_stall,
                               sim::TraceCategory::kTlbShootdown,
                               "tlbi-bcast");
      }
      local_cost = tlb_model_.local_flush(flushes);
      break;
    }
    case TlbFlushMode::kIpi: {
      // x86 path: interrupt every core currently running another thread of
      // this mm; the initiator busy-waits for acknowledgements.
      for (os::ThreadId tid : proc.threads) {
        const os::Thread& t = thread(tid);
        if (t.state == os::ThreadState::kRunning && t.core != initiator) {
          interrupt_core(t.core, tlb_model_.ipi_shootdown_per_core(),
                         sim::TraceCategory::kTlbShootdown, "tlbi-ipi");
          obs::bump(shootdown_ipi_counter_);
          ++ipi_victims;
        }
      }
      local_cost = tlb_model_.local_flush(std::min<std::uint64_t>(
          flushes, 64));  // range flush caps at full-TLB invalidate
      if (ipi_victims > 0) ipi_wait = tlb_model_.ipi_shootdown_per_core();
      break;
    }
  }

  const SimTime cost = local_cost + ipi_wait;
  sim::TraceBuffer* tb = trace();
  if (tb != nullptr && tb->enabled()) {
    const SimTime start = simulator().now();
    const std::uint64_t root = tb->new_span();
    auto child = [&](SimTime at, SimTime duration, std::string label) {
      tb->record(sim::TraceRecord{.time = at,
                                  .core = initiator,
                                  .category =
                                      sim::TraceCategory::kTlbShootdown,
                                  .duration = duration,
                                  .label = std::move(label),
                                  .span = tb->new_span(),
                                  .parent = root});
    };
    tb->record(sim::TraceRecord{.time = start,
                                .core = initiator,
                                .category = sim::TraceCategory::kTlbShootdown,
                                .duration = cost,
                                .label = "tlb:shootdown",
                                .span = root,
                                .parent = parent_span});
    child(start, local_cost, "tlb:local-flush");
    if (victim_stall > SimTime::zero()) {
      // The concurrent stall every other core eats while the initiator
      // issues its flush loop (recorded on the initiator track; the victim
      // side shows up as the usual tlbi-bcast stall records).
      child(start, victim_stall, "tlb:victim-stall");
    }
    if (ipi_victims > 0) {
      child(start + local_cost, ipi_wait,
            "tlb:ipi-wait x" + std::to_string(ipi_victims));
    }
  }
  return cost;
}

void LinuxKernel::send_signal(os::ThreadId target) {
  if (!thread_alive(target)) return;
  const os::Thread& t = thread(target);
  if (t.state == os::ThreadState::kBlocked) {
    os::SyscallResult r;
    r.ok = false;
    r.value = -4;  // EINTR
    complete_blocked_syscall(target, r);
    return;
  }
  if (t.state == os::ThreadState::kRunning) {
    interrupt_core(t.core, SimTime::us(1), sim::TraceCategory::kIrq,
                   "signal");
  }
}

void LinuxKernel::on_thread_exit(os::Thread& thread) {
  os::Process& proc = process(thread.pid);
  if (proc.threads.size() != 1) return;  // not the last thread

  // Process teardown: every resident page is unmapped, generating the
  // "process termination" TLB flush storm of §4.2.2.
  std::uint64_t flushes = 0;
  std::uint64_t bytes = 0;
  for (const auto& [addr, area] : proc.address_space.areas()) {
    flushes += area.populated_pages;
    bytes += area.length;
    if (auto it = hugetlb_backing_.find({proc.pid, addr});
        it != hugetlb_backing_.end()) {
      hugetlbfs_.release(it->second, cgroups_.memory_cgroup_of(proc.pid));
      hugetlb_backing_.erase(it);
    }
  }
  if (bytes > 0) vnuma_.free(MemRegion::kApplication, bytes);
  if (flushes > 0) {
    const SimTime teardown =
        costs().unmap_per_page * static_cast<std::int64_t>(flushes) +
        tlb_shootdown(proc, thread.core, flushes);
    interrupt_core(thread.core, teardown, sim::TraceCategory::kSyscall,
                   "exit-teardown");
  }
}

}  // namespace hpcos::linuxk
