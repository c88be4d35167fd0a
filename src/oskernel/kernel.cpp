#include "oskernel/kernel.h"

#include <utility>

namespace hpcos::os {

// ---- ThreadContext ----

namespace {
void check_single_action(bool already_set) {
  HPCOS_CHECK_MSG(!already_set,
                  "ThreadBody::step requested more than one action");
}
}  // namespace

void ThreadContext::compute(SimTime work) {
  check_single_action(action_set_);
  HPCOS_CHECK(!work.is_negative());
  action_ = PendingAction{};
  action_.kind = ActionKind::kCompute;
  action_.duration = work;
  action_set_ = true;
}

void ThreadContext::invoke(Syscall no, SyscallArgs args) {
  check_single_action(action_set_);
  action_ = PendingAction{};
  action_.kind = ActionKind::kSyscall;
  action_.syscall = SyscallRequest{no, args};
  action_set_ = true;
}

void ThreadContext::sleep_for(SimTime dt) {
  check_single_action(action_set_);
  HPCOS_CHECK(!dt.is_negative());
  action_ = PendingAction{};
  action_.kind = ActionKind::kSleep;
  action_.duration = dt;
  action_set_ = true;
}

void ThreadContext::exit() {
  check_single_action(action_set_);
  action_ = PendingAction{};
  action_.kind = ActionKind::kExit;
  action_set_ = true;
}

// ---- NodeKernel ----

NodeKernel::NodeKernel(sim::Simulator& simulator,
                       const hw::NodeTopology& topology,
                       hw::CpuSet owned_cores, KernelCosts costs,
                       sim::TraceBuffer* trace)
    : sim_(simulator),
      topology_(topology),
      owned_cores_(std::move(owned_cores)),
      costs_(costs),
      trace_(trace),
      cores_(static_cast<std::size_t>(topology.logical_cores())) {
  HPCOS_CHECK_MSG(owned_cores_.any(), "kernel owns no cores");
  for (hw::CoreId id : owned_cores_.to_vector()) {
    HPCOS_CHECK(id < topology.logical_cores());
    cores_[static_cast<std::size_t>(id)].owned = true;
  }
}

Pid NodeKernel::create_process(ProcessAttrs attrs) {
  const Pid pid = next_pid_++;
  auto proc = std::make_unique<Process>();
  proc->pid = pid;
  proc->attrs = std::move(attrs);
  processes_.emplace(pid, std::move(proc));
  return pid;
}

Process& NodeKernel::process(Pid pid) {
  auto it = processes_.find(pid);
  HPCOS_CHECK_MSG(it != processes_.end(), "unknown pid");
  return *it->second;
}

bool NodeKernel::process_alive(Pid pid) const {
  return processes_.contains(pid);
}

ThreadId NodeKernel::spawn(std::unique_ptr<ThreadBody> body,
                           SpawnAttrs attrs) {
  HPCOS_CHECK(body != nullptr);
  hw::CpuSet affinity =
      attrs.affinity.any() ? std::move(attrs.affinity) : owned_cores_;
  HPCOS_CHECK_MSG(affinity.intersects(owned_cores_),
                  "thread affinity excludes all owned cores");
  HPCOS_CHECK_MSG(attrs.pid == kInvalidPid || process_alive(attrs.pid),
                  "unknown pid");
  const Pid pid = attrs.pid == kInvalidPid
                      ? create_process(ProcessAttrs{.name = attrs.name})
                      : attrs.pid;
  const ThreadId tid = threads_.size() + 1;

  auto t = std::make_unique<Thread>();
  t->tid = tid;
  t->pid = pid;
  t->name = attrs.name.empty() ? ("thread-" + std::to_string(tid))
                               : std::move(attrs.name);
  t->affinity = std::move(affinity);
  t->kernel_thread = attrs.kernel_thread;
  t->background = attrs.background;
  t->body = std::move(body);

  Thread* thread = threads_.emplace_back(std::move(t)).get();
  process(pid).threads.push_back(tid);
  ++live_threads_;
  // Initial dispatch goes through the event queue so spawn() returns
  // before the body's first step runs (threads never execute inside their
  // creator's stack frame).
  sim_.schedule_after(
      SimTime::zero(),
      [this, thread] {
        if (thread->state == ThreadState::kReady) {
          enqueue_and_maybe_dispatch(*thread);
        }
      },
      "os.thread.start");
  return tid;
}

Thread* NodeKernel::find_thread(ThreadId tid) const {
  return tid >= 1 && tid <= threads_.size() ? threads_[tid - 1].get()
                                            : nullptr;
}

const Thread& NodeKernel::thread(ThreadId tid) const {
  const Thread* t = find_thread(tid);
  HPCOS_CHECK_MSG(t != nullptr, "unknown tid");
  return *t;
}

Thread& NodeKernel::thread_mut(ThreadId tid) {
  Thread* t = find_thread(tid);
  HPCOS_CHECK_MSG(t != nullptr, "unknown tid");
  return *t;
}

bool NodeKernel::thread_alive(ThreadId tid) const {
  const Thread* t = find_thread(tid);
  return t != nullptr && t->state != ThreadState::kExited;
}

// ---- interference ----

void NodeKernel::interrupt_core(hw::CoreId core, SimTime duration,
                                sim::TraceCategory category,
                                const std::string& label) {
  CoreState& cs = core_state(core);
  HPCOS_CHECK_MSG(cs.owned, "interrupting a core this kernel does not own");
  HPCOS_CHECK(duration > SimTime::zero());
  trace_event(core, category, duration, label);
  ++cs.acct.interrupts;
  cs.acct.kernel += duration;
  interrupt_ns_ += static_cast<std::uint64_t>(duration.count_ns());

  if (cs.in_irq) {
    // Nested/back-to-back interrupts extend the busy period.
    cs.irq_end += duration;
    sim_.cancel(cs.irq_event);
  } else {
    pause_burst(core);
    cs.in_irq = true;
    cs.irq_start = sim_.now();
    cs.irq_end = sim_.now() + duration;
  }
  cs.irq_event = sim_.schedule_at(
      cs.irq_end, [this, core] { on_irq_end(core); }, "os.irq.end");
}

void NodeKernel::stall_core(hw::CoreId core, SimTime duration,
                            sim::TraceCategory category,
                            const std::string& label) {
  CoreState& cs = core_state(core);
  if (!cs.owned || duration.is_zero()) return;
  if (cs.in_irq) {
    // The stall lengthens whatever the core is doing, IRQ handlers
    // included.
    cs.acct.stall += duration;
    trace_event(core, category, duration, label);
    cs.irq_end += duration;
    sim_.cancel(cs.irq_event);
    cs.irq_event = sim_.schedule_at(
        cs.irq_end, [this, core] { on_irq_end(core); }, "os.irq.end");
    return;
  }
  if (cs.running == kInvalidThread) return;  // nothing to slow down
  Thread& t = thread_mut(cs.running);
  if (!cs.burst_event.valid()) return;
  cs.acct.stall += duration;
  trace_event(core, category, duration, label);
  pause_burst(core);
  t.remaining += duration;
  start_burst(core, t);
}

void NodeKernel::stall_all_cores_except(hw::CoreId initiator,
                                        SimTime duration,
                                        sim::TraceCategory category,
                                        const std::string& label) {
  for (hw::CoreId id = owned_cores_.first(); id != hw::kInvalidCore;
       id = owned_cores_.next(id)) {
    if (id == initiator) continue;
    stall_core(id, duration, category, label);
  }
}

// ---- blocking ----

void NodeKernel::wake(ThreadId tid) {
  Thread* t = find_thread(tid);
  if (t == nullptr || t->state != ThreadState::kBlocked) return;  // spurious
  enqueue_and_maybe_dispatch(*t);
}

void NodeKernel::complete_blocked_syscall(ThreadId tid,
                                          SyscallResult result) {
  Thread* t = find_thread(tid);
  HPCOS_CHECK_MSG(t != nullptr, "completing syscall of unknown tid");
  HPCOS_CHECK_MSG(t->state == ThreadState::kBlocked,
                  "completing syscall of non-blocked thread");
  t->last_result = result;
  enqueue_and_maybe_dispatch(*t);
}

// ---- introspection ----

const CoreAccounting& NodeKernel::accounting(hw::CoreId core) const {
  return cores_.at(static_cast<std::size_t>(core)).acct;
}

ThreadId NodeKernel::running_on(hw::CoreId core) const {
  return cores_.at(static_cast<std::size_t>(core)).running;
}

bool NodeKernel::core_idle(hw::CoreId core) const {
  const CoreState& cs = cores_.at(static_cast<std::size_t>(core));
  return cs.running == kInvalidThread && !cs.in_irq;
}

// ---- protected helpers ----

void NodeKernel::request_resched(hw::CoreId core) {
  CoreState& cs = core_state(core);
  if (cs.in_irq) {
    cs.pending_resched = true;
  } else if (cs.running != kInvalidThread) {
    preempt_running(core);
  } else {
    maybe_dispatch(core);
  }
}

void NodeKernel::preempt_running(hw::CoreId core) {
  CoreState& cs = core_state(core);
  HPCOS_CHECK(cs.running != kInvalidThread);
  pause_burst(core);
  Thread& t = thread_mut(cs.running);
  t.state = ThreadState::kReady;
  ++t.involuntary_switches;
  cs.running = kInvalidThread;
  if (tracing()) {
    trace_event(core, sim::TraceCategory::kScheduler, SimTime::zero(),
                "preempt:" + t.name);
  }
  // Preempted threads stay local: queue back on the same core.
  sched().enqueue(core, t);
  on_thread_enqueued(core);
  maybe_dispatch(core);
}

void NodeKernel::trace_event(hw::CoreId core, sim::TraceCategory cat,
                             SimTime duration, const std::string& label) {
  if (!tracing()) return;
  trace_->record(sim::TraceRecord{.time = sim_.now(),
                                  .core = core,
                                  .category = cat,
                                  .duration = duration,
                                  .label = label});
}

// ---- private machinery ----

NodeKernel::CoreState& NodeKernel::core_state(hw::CoreId core) {
  HPCOS_CHECK(core >= 0 &&
              static_cast<std::size_t>(core) < cores_.size());
  return cores_[static_cast<std::size_t>(core)];
}

std::size_t NodeKernel::Load::at(hw::CoreId core) const {
  const bool running = kernel_.core_state(core).running != kInvalidThread;
  return (running ? 1 : 0) + kernel_.sched().runnable_count(core);
}

void NodeKernel::enqueue_and_maybe_dispatch(Thread& thread) {
  thread.state = ThreadState::kReady;
  const hw::CoreId core = sched().select_core(thread, Load(*this));
  HPCOS_CHECK_MSG(core != hw::kInvalidCore, "scheduler returned no core");
  HPCOS_CHECK_MSG(core_state(core).owned,
                  "scheduler placed thread on un-owned core");
  sched().enqueue(core, thread);
  on_thread_enqueued(core);

  CoreState& cs = core_state(core);
  if (cs.running == kInvalidThread) {
    if (!cs.in_irq) maybe_dispatch(core);
    // else: on_irq_end dispatches.
    return;
  }
  Thread& running = thread_mut(cs.running);
  if (sched().preempt_on_wakeup(thread, running)) {
    if (cs.in_irq) {
      cs.pending_resched = true;
    } else {
      preempt_running(core);
    }
  }
}

void NodeKernel::maybe_dispatch(hw::CoreId core) {
  CoreState& cs = core_state(core);
  if (cs.running != kInvalidThread || cs.in_irq) return;
  const ThreadId tid = sched().pick_next(core);
  if (tid == kInvalidThread) {
    on_core_idle(core);
    return;
  }
  dispatch(core, tid);
}

void NodeKernel::dispatch(hw::CoreId core, ThreadId tid) {
  CoreState& cs = core_state(core);
  HPCOS_CHECK(cs.running == kInvalidThread);
  Thread& t = thread_mut(tid);
  HPCOS_CHECK(t.state == ThreadState::kReady);
  t.state = ThreadState::kRunning;
  t.core = core;
  cs.running = tid;

  const bool switched = cs.last_ran != tid && cs.last_ran != kInvalidThread;
  cs.last_ran = tid;
  if (switched && costs_.context_switch > SimTime::zero()) {
    ++cs.acct.context_switches;
    // The switch occupies the core in kernel mode before the thread runs;
    // begin_action below will start (or defer) the burst accordingly.
    interrupt_core(core, costs_.context_switch,
                   sim::TraceCategory::kContextSwitch,
                   tracing() ? "switch:" + t.name : std::string());
  }
  on_core_activated(core);
  begin_action(core, t);
}

void NodeKernel::begin_action(hw::CoreId core, Thread& thread) {
  switch (thread.action.kind) {
    case ActionKind::kNone:
      finish_action(core, thread);
      return;

    case ActionKind::kCompute:
      if (thread.remaining.is_zero()) {
        thread.remaining = thread.action.duration;
        thread.burst_mode = ExecMode::kUser;
      }
      start_burst(core, thread);
      return;

    case ActionKind::kSyscall: {
      if (thread.remaining.is_zero()) {
        // Fresh call: consult the concrete kernel.
        const SyscallRequest req = thread.action.syscall;
        if (tracing()) {
          trace_event(core, sim::TraceCategory::kSyscall, SimTime::zero(),
                      to_string(req.no));
        }
        SyscallDisposition disp = handle_syscall(thread, req);
        if (disp.kind == SyscallDisposition::Kind::kBlocked) {
          thread.state = ThreadState::kBlocked;
          thread.action = PendingAction{};
          release_core(core);
          maybe_dispatch(core);
          return;
        }
        disp.result.service_time = disp.service_time + costs_.syscall_trap;
        thread.last_result = disp.result;  // delivered at burst end; kept
                                           // here so pending state is 1 field
        thread.remaining = disp.service_time + costs_.syscall_trap;
        thread.burst_mode = ExecMode::kKernel;
      }
      start_burst(core, thread);
      return;
    }

    case ActionKind::kSleep: {
      const ThreadId tid = thread.tid;
      const SimTime dt = thread.action.duration;
      thread.state = ThreadState::kBlocked;
      thread.action = PendingAction{};
      sim_.schedule_after(
          dt, [this, tid] { wake(tid); }, "os.sleep.wake");
      release_core(core);
      maybe_dispatch(core);
      return;
    }

    case ActionKind::kExit:
      destroy_thread(thread);
      return;
  }
}

void NodeKernel::start_burst(hw::CoreId core, Thread& thread) {
  CoreState& cs = core_state(core);
  HPCOS_CHECK(cs.running == thread.tid);
  if (cs.in_irq) return;  // resumed by on_irq_end
  cs.burst_start = sim_.now();
  const ThreadId tid = thread.tid;
  cs.burst_event = sim_.schedule_after(
      thread.remaining, [this, core, tid] { on_burst_done(core, tid); },
      "os.burst.done");
}

void NodeKernel::on_burst_done(hw::CoreId core, ThreadId tid) {
  CoreState& cs = core_state(core);
  HPCOS_CHECK(cs.running == tid);
  Thread& t = thread_mut(tid);
  cs.burst_event = sim::EventId{};
  charge_burst(cs, t, t.remaining);
  t.remaining = SimTime::zero();
  finish_action(core, t);
}

void NodeKernel::pause_burst(hw::CoreId core) {
  CoreState& cs = core_state(core);
  if (cs.running == kInvalidThread || !cs.burst_event.valid()) return;
  Thread& t = thread_mut(cs.running);
  const SimTime elapsed = sim_.now() - cs.burst_start;
  sim_.cancel(cs.burst_event);
  cs.burst_event = sim::EventId{};
  charge_burst(cs, t, elapsed);
  t.remaining -= elapsed;
  HPCOS_CHECK(!t.remaining.is_negative());
}

void NodeKernel::finish_action(hw::CoreId core, Thread& thread) {
  thread.action = PendingAction{};
  ThreadContext ctx;
  ctx.now_ = sim_.now();
  ctx.tid_ = thread.tid;
  ctx.pid_ = thread.pid;
  ctx.core_ = core;
  ctx.last_result_ = thread.last_result;
  thread.body->step(ctx);
  HPCOS_CHECK_MSG(ctx.action_set_,
                  "ThreadBody::step must request exactly one action");
  thread.action = ctx.action_;
  begin_action(core, thread);
}

void NodeKernel::release_core(hw::CoreId core) {
  core_state(core).running = kInvalidThread;
}

void NodeKernel::on_irq_end(hw::CoreId core) {
  CoreState& cs = core_state(core);
  HPCOS_CHECK(cs.in_irq);
  cs.in_irq = false;
  cs.irq_event = sim::EventId{};
  if (cs.pending_resched) {
    cs.pending_resched = false;
    if (cs.running != kInvalidThread) {
      preempt_running(core);
      return;
    }
  }
  if (cs.running != kInvalidThread) {
    start_burst(core, thread_mut(cs.running));
  } else {
    maybe_dispatch(core);
  }
}

void NodeKernel::charge_burst(CoreState& cs, Thread& thread,
                              SimTime elapsed) {
  if (elapsed.is_zero()) return;
  if (thread.burst_mode == ExecMode::kUser && thread.kernel_thread) {
    // Kernel threads (kworkers) execute kernel code even in their
    // "compute" bursts: charge and trace accordingly.
    cs.acct.kernel += elapsed;
    thread.kernel_time += elapsed;
    trace_event(thread.core, sim::TraceCategory::kKworker, elapsed,
                thread.name);
    sched().charge(thread, elapsed);
    return;
  }
  if (thread.burst_mode == ExecMode::kUser) {
    cs.acct.user += elapsed;
    thread.user_time += elapsed;
    if (thread.background) {
      // Background residency is interference from the application's point
      // of view; make it visible to trace analysis (§4.2.1).
      trace_event(thread.core, sim::TraceCategory::kDaemon, elapsed,
                  thread.name);
    }
  } else {
    cs.acct.kernel += elapsed;
    thread.kernel_time += elapsed;
  }
  sched().charge(thread, elapsed);
}

void NodeKernel::destroy_thread(Thread& thread) {
  const hw::CoreId core = thread.core;
  CoreState& cs = core_state(core);
  HPCOS_CHECK(cs.running == thread.tid);
  thread.state = ThreadState::kExited;
  on_thread_exit(thread);
  sched().remove(thread);
  auto& siblings = process(thread.pid).threads;
  std::erase(siblings, thread.tid);
  --live_threads_;
  release_core(core);
  maybe_dispatch(core);
}

}  // namespace hpcos::os
