#include "mckernel/mckernel.h"

#include "mckernel/offload.h"

#include "noise/profiles.h"

namespace hpcos::mck {
namespace {

// Fault classification on the LWK: k4K/k64K are first-level ("base") page
// sizes; anything larger takes the large-page path (hugeTLB-equivalent).
os::FaultKind lwk_fault_kind(hw::PageSize page) {
  const bool base =
      page == hw::PageSize::k4K || page == hw::PageSize::k64K;
  return os::classify_fault(page, base ? page : hw::PageSize::k64K);
}

}  // namespace

McKernelConfig McKernelConfig::defaults() {
  McKernelConfig c;
  // LWK costs: simple code paths, no spectre/meltdown mitigations, no
  // cgroup walk on the fault path.
  c.costs.context_switch = SimTime::ns(600);
  c.costs.syscall_trap = SimTime::ns(80);
  c.costs.tick_duration = SimTime::zero();          // tick-less
  c.costs.residual_tick_duration = SimTime::zero();
  c.costs.page_fault_base = SimTime::ns(600);
  c.costs.page_fault_large = SimTime::us(2);
  c.costs.unmap_per_page = SimTime::ns(40);
  c.hw_noise = noise::fugaku_mckernel_profile();
  return c;
}

McKernel::McKernel(sim::Simulator& simulator,
                   const hw::NodeTopology& topology, hw::CpuSet owned_cores,
                   McKernelConfig config, Seed seed, sim::TraceBuffer* trace,
                   os::ChipStallBus* stall_bus)
    : NodeKernel(simulator, topology, owned_cores, config.costs, trace),
      config_(std::move(config)),
      lwk_sched_(static_cast<std::size_t>(topology.logical_cores()),
                 this->owned_cores()),
      pico_(config_.picodriver),
      rng_(seed, /*stream=*/0x3C0) {
  if (stall_bus != nullptr) stall_bus->attach(*this);
}

void McKernel::boot() {
  HPCOS_CHECK_MSG(!booted_, "McKernel::boot called twice");
  booted_ = true;
  background_ = std::make_unique<noise::BackgroundActivity>(
      *this, config_.hw_noise, owned_cores(),
      hw::CpuSet(static_cast<std::size_t>(topology().logical_cores())),
      /*bus=*/nullptr, rng_.split(7));
  background_->start();
}

void McKernel::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    local_counter_ = nullptr;
    offload_counter_ = nullptr;
    stag_counter_ = nullptr;
    fault_counter_ = nullptr;
    lwk_sched_.set_dispatch_counter(nullptr);
    set_interrupt_ns_counter(nullptr);
    return;
  }
  set_interrupt_ns_counter(registry->counter("lwk.interrupt_ns"));
  local_counter_ = registry->counter("lwk.syscalls.local");
  offload_counter_ = registry->counter("lwk.syscalls.offloaded");
  stag_counter_ = registry->counter("lwk.stag.registrations");
  fault_counter_ = registry->counter("lwk.page_faults");
  lwk_sched_.set_dispatch_counter(registry->counter("lwk.sched.dispatches"));
}

bool McKernel::is_local_syscall(os::Syscall no) {
  using S = os::Syscall;
  switch (no) {
    case S::kMmap:
    case S::kMunmap:
    case S::kBrk:
    case S::kFutex:
    case S::kClone:
    case S::kExitGroup:
    case S::kGetTimeOfDay:
    case S::kSchedYield:
    case S::kNanosleep:
    case S::kSignal:
    case S::kKill:
      return true;
    default:
      return false;  // read/write/open/close/stat/ioctl/perf_event_open...
  }
}

os::NodeKernel::SyscallDisposition McKernel::handle_syscall(
    os::Thread& thread, const os::SyscallRequest& req) {
  using S = os::Syscall;

  // PicoDriver intercept: Tofu STAG registration stays LWK-local when the
  // split driver is loaded (otherwise ioctl is offloaded like any other).
  if (req.no == S::kIoctl && pico_.enabled() &&
      (req.args.arg2 == kTofuRegisterStag ||
       req.args.arg2 == kTofuDeregisterStag)) {
    ++local_count_;
    obs::bump(local_counter_);
    if (req.args.arg2 == kTofuRegisterStag) obs::bump(stag_counter_);
    SyscallDisposition d;
    d.service_time = req.args.arg2 == kTofuRegisterStag
                         ? pico_.register_stag(req.args.arg1)
                         : pico_.deregister_stag(req.args.arg1);
    d.result.ok = true;
    d.result.path = os::SyscallResult::Path::kFastDriver;
    return d;
  }

  if (!is_local_syscall(req.no)) {
    ++offload_count_;
    obs::bump(offload_counter_);
    HPCOS_CHECK_MSG(offloader_ != nullptr,
                    "offloaded syscall without a proxy path: " +
                        to_string(req.no));
    SyscallDisposition d;
    d.kind = SyscallDisposition::Kind::kBlocked;
    offloader_->offload(thread.tid, thread.pid, req);
    return d;
  }

  ++local_count_;
  obs::bump(local_counter_);
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
          dt,
          [this, tid] {
            os::SyscallResult r;
            r.ok = true;
            complete_blocked_syscall(tid, r);
          },
          "lwk.sleep.wake");
      return d;
    }
    case S::kFutex:
      if (req.args.arg0 == 0) {
        SyscallDisposition d;
        d.kind = SyscallDisposition::Kind::kBlocked;
        return d;
      }
      break;
    case S::kKill:
      send_signal(static_cast<os::ThreadId>(req.args.arg0));
      break;
    default:
      break;
  }
  SyscallDisposition d;
  d.service_time = config_.local_syscall_cost;
  d.result.ok = true;
  d.result.path = os::SyscallResult::Path::kLocal;
  return d;
}

os::NodeKernel::SyscallDisposition McKernel::do_mmap(
    os::Thread& thread, const os::SyscallArgs& args) {
  const std::uint64_t length = args.arg0;
  os::Process& proc = process(thread.pid);

  SyscallDisposition d;
  d.service_time = config_.mmap_cost;
  d.result.ok = true;
  d.result.path = os::SyscallResult::Path::kLocal;

  // Large-page-first; the process's preference can force the base page.
  const hw::PageSize page =
      proc.attrs.preferred_page_size == hw::PageSize::k4K ||
              proc.attrs.preferred_page_size == hw::PageSize::k64K
          ? proc.attrs.preferred_page_size
          : config_.default_page_size;

  // Retained physical memory: freed ranges stay with the process, so a
  // re-allocation of pooled bytes is mapped pre-populated with no fault
  // cost — exactly the behaviour that sidesteps Linux's heap churn (§6.4,
  // Lulesh).
  auto& pool = process_pool_[proc.pid];
  if (pool >= length) {
    pool -= length;
    const std::uint64_t addr =
        proc.address_space.map(length, page, os::PagingPolicy::kPrePopulate);
    // Zero-cost remap of retained memory: mark it in the trace so the
    // viewer shows why the LWK side has no fault storm here.
    sim::TraceBuffer* tb = trace();
    if (tb != nullptr && tb->enabled()) {
      tb->record(sim::TraceRecord{.time = simulator().now(),
                                  .core = thread.core,
                                  .category = sim::TraceCategory::kPageFault,
                                  .duration = SimTime::zero(),
                                  .label = "fault:pool-reuse",
                                  .span = tb->new_span(),
                                  .parent = 0});
    }
    d.result.value = static_cast<std::int64_t>(addr);
    return d;
  }

  const std::uint64_t addr =
      proc.address_space.map(length, page, proc.attrs.paging);
  if (proc.attrs.paging == os::PagingPolicy::kPrePopulate) {
    const auto it = proc.address_space.areas().find(addr);
    const std::uint64_t faults = it->second.populated_pages;
    const SimTime cost =
        config_.page_fault_cost * static_cast<std::int64_t>(faults);
    d.service_time += cost;
    record_fault_spans(thread.core, lwk_fault_kind(page),
                       faults, cost);
  }
  d.result.value = static_cast<std::int64_t>(addr);
  return d;
}

os::NodeKernel::SyscallDisposition McKernel::do_munmap(
    os::Thread& thread, const os::SyscallArgs& args) {
  os::Process& proc = process(thread.pid);
  const auto res = proc.address_space.unmap(args.arg0, args.arg1);
  process_pool_[proc.pid] += args.arg1;

  SyscallDisposition d;
  // Threads never migrate on the LWK, so invalidation is a local-flush
  // loop — no broadcast, no IPIs (§5 + §4.2.2 contrast).
  d.service_time =
      config_.munmap_cost +
      costs().unmap_per_page * static_cast<std::int64_t>(res.pages_released);
  d.result.ok = true;
  d.result.path = os::SyscallResult::Path::kLocal;
  return d;
}

void McKernel::record_fault_spans(hw::CoreId core, os::FaultKind kind,
                                  std::uint64_t faults, SimTime cost) {
  sim::TraceBuffer* tb = trace();
  if (tb == nullptr || !tb->enabled() || faults == 0) return;
  const SimTime start = simulator().now();
  const std::uint64_t root = tb->new_span();
  tb->record(sim::TraceRecord{.time = start,
                              .core = core,
                              .category = sim::TraceCategory::kPageFault,
                              .duration = cost,
                              .label = "fault:" + os::to_string(kind),
                              .span = root,
                              .parent = 0});
  tb->record(sim::TraceRecord{.time = start,
                              .core = core,
                              .category = sim::TraceCategory::kPageFault,
                              .duration = cost,
                              .label = "fault:populate",
                              .span = tb->new_span(),
                              .parent = root});
}

void McKernel::send_signal(os::ThreadId target) {
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
    interrupt_core(t.core, SimTime::ns(500), sim::TraceCategory::kIrq,
                   "signal");
  }
  // Ready threads observe the signal when dispatched; nothing to do.
}

void McKernel::on_thread_exit(os::Thread& thread) {
  os::Process& proc = process(thread.pid);
  if (proc.threads.size() != 1) return;
  // LWK teardown: physical memory goes back to the LWK allocator with a
  // local flush only — no chip-wide storm.
  std::uint64_t pages = 0;
  for (const auto& [_, area] : proc.address_space.areas()) {
    pages += area.populated_pages;
  }
  process_pool_.erase(proc.pid);
  if (pages > 0) {
    interrupt_core(thread.core,
                   costs().unmap_per_page * static_cast<std::int64_t>(pages),
                   sim::TraceCategory::kSyscall, "lwk-exit-teardown");
  }
}

}  // namespace hpcos::mck
