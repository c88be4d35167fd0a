// NodeKernel: policy-free execution machinery for one kernel instance.
//
// A kernel instance owns a subset of a node's cores (all of them for a
// plain Linux node; the application partition for McKernel running beside
// Linux) and multiplexes simulated threads onto them. All timing effects
// flow through three primitives:
//
//   * bursts    — a thread consuming CPU (user compute or kernel service);
//   * interrupts— asynchronous kernel-mode time stolen from a core (ticks,
//                 IRQs, IPIs, context switches);
//   * stalls    — hardware-level cycles lost by the *running* burst without
//                 any kernel instructions executing (the A64FX broadcast-
//                 TLBI victim penalty of §4.2.2).
//
// Policy (who runs where and when) is delegated to a Scheduler, and
// semantics of syscalls to the concrete kernel subclass (linuxk::LinuxKernel
// or mckernel::McKernel).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "hw/cpuset.h"
#include "hw/topology.h"
#include "obs/registry.h"
#include "oskernel/costs.h"
#include "oskernel/process.h"
#include "oskernel/scheduler.h"
#include "oskernel/thread.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace hpcos::os {

// Per-core time breakdown; the substrate's stand-in for the PMU counters
// the paper uses to attribute noise (user vs kernel instructions vs pure
// execution-time inflation).
struct CoreAccounting {
  SimTime user;    // application bursts
  SimTime kernel;  // syscall service + interrupt handlers + switches
  SimTime stall;   // hardware stalls injected into running bursts
  std::uint64_t interrupts = 0;
  std::uint64_t context_switches = 0;
};

class NodeKernel {
 public:
  NodeKernel(sim::Simulator& simulator, const hw::NodeTopology& topology,
             hw::CpuSet owned_cores, KernelCosts costs,
             sim::TraceBuffer* trace = nullptr);
  virtual ~NodeKernel() = default;
  NodeKernel(const NodeKernel&) = delete;
  NodeKernel& operator=(const NodeKernel&) = delete;

  virtual std::string name() const = 0;

  // ---- processes & threads ----
  Pid create_process(ProcessAttrs attrs);
  Process& process(Pid pid);
  bool process_alive(Pid pid) const;

  // Spawn a thread. Empty affinity means "all owned cores". The thread is
  // enqueued immediately and runs when the scheduler dispatches it. A
  // spawn rejected for its affinity or an unknown attrs.pid throws before
  // it creates a process or takes a tid.
  ThreadId spawn(std::unique_ptr<ThreadBody> body, SpawnAttrs attrs);

  const Thread& thread(ThreadId tid) const;
  bool thread_alive(ThreadId tid) const;
  std::size_t live_thread_count() const { return live_threads_; }

  // ---- interference injection (kernel subsystems, IKC, tests) ----
  // Steal `duration` of kernel-mode time on a core.
  void interrupt_core(hw::CoreId core, SimTime duration,
                      sim::TraceCategory category, const std::string& label);
  // Nullable total-interrupt-time counter bumped by interrupt_core (the
  // central kernel-time-theft path). Concrete kernels register it as
  // linux.interrupt_ns / lwk.interrupt_ns in set_registry; the streaming
  // RegistrySampler turns its deltas into a Fig. 3-style noise-rate
  // series per kernel.
  void set_interrupt_ns_counter(obs::Counter* counter) {
    interrupt_ns_counter_ = counter;
  }
  // Inflate the running burst on `core` by `duration` (hardware stall).
  // No-op on idle cores.
  void stall_core(hw::CoreId core, SimTime duration,
                  sim::TraceCategory category, const std::string& label);
  // Stall every owned core except `initiator` (broadcast TLBI victims).
  void stall_all_cores_except(hw::CoreId initiator, SimTime duration,
                              sim::TraceCategory category,
                              const std::string& label);

  // ---- blocking support ----
  // Wake a thread blocked via ThreadContext::sleep_for's timer or an
  // explicit block arranged by a subclass. Safe on exited threads (no-op).
  void wake(ThreadId tid);
  // Deliver the result of a blocked syscall and wake the thread.
  void complete_blocked_syscall(ThreadId tid, SyscallResult result);

  // ---- introspection ----
  const CoreAccounting& accounting(hw::CoreId core) const;
  ThreadId running_on(hw::CoreId core) const;
  const hw::CpuSet& owned_cores() const { return owned_cores_; }
  bool core_idle(hw::CoreId core) const;
  sim::Simulator& simulator() { return sim_; }
  const hw::NodeTopology& topology() const { return topology_; }
  const KernelCosts& costs() const { return costs_; }
  sim::TraceBuffer* trace() { return trace_; }

 protected:
  // ---- policy hooks ----
  virtual Scheduler& sched() = 0;

  struct SyscallDisposition {
    enum class Kind : std::uint8_t { kInline, kBlocked } kind = Kind::kInline;
    SimTime service_time;   // kernel time consumed on the calling core
    SyscallResult result;   // delivered when the service burst completes
  };
  // Decide how to serve a syscall. For Kind::kBlocked the subclass must
  // eventually call complete_blocked_syscall(tid, result).
  virtual SyscallDisposition handle_syscall(Thread& thread,
                                            const SyscallRequest& req) = 0;
  // Called when a thread exits (before removal from its process). Linux
  // uses this for address-space teardown (TLB flush storms).
  virtual void on_thread_exit(Thread& /*thread*/) {}
  // Called when a core transitions idle->busy (a thread was dispatched) or
  // busy->idle (nothing left to run). linuxk's tick driver uses these to
  // park/unpark per-core timer ticks (nohz idle).
  virtual void on_core_activated(hw::CoreId /*core*/) {}
  virtual void on_core_idle(hw::CoreId /*core*/) {}
  // Called after a runnable thread is queued on `core` (whether or not it
  // was dispatched). linuxk restarts the full tick cadence here when a
  // nohz_full core gains a second runnable task.
  virtual void on_thread_enqueued(hw::CoreId /*core*/) {}

  // Request that `core` re-evaluate scheduling at the next safe point
  // (immediately if idle-handoff, after the IRQ if inside one). Used by
  // tick handlers.
  void request_resched(hw::CoreId core);

  // Move the running thread (if any) back to the ready queue and dispatch
  // the scheduler's next pick.
  void preempt_running(hw::CoreId core);

  // True while the trace buffer records; build labels only then.
  bool tracing() const { return trace_ != nullptr && trace_->enabled(); }
  void trace_event(hw::CoreId core, sim::TraceCategory cat, SimTime duration,
                   const std::string& label);

  // Mutable thread access for subclasses (tick handlers, signal delivery).
  Thread& thread_ref(ThreadId tid) { return thread_mut(tid); }

 private:
  struct CoreState {
    bool owned = false;
    ThreadId running = kInvalidThread;
    ThreadId last_ran = kInvalidThread;
    SimTime burst_start;
    sim::EventId burst_event;
    bool in_irq = false;
    SimTime irq_start;
    SimTime irq_end;
    sim::EventId irq_event;
    bool pending_resched = false;
    CoreAccounting acct;
  };

  // The scheduler's view of this kernel's per-core load.
  class Load final : public CoreLoad {
   public:
    explicit Load(NodeKernel& kernel) : kernel_(kernel) {}
    std::size_t at(hw::CoreId core) const override;

   private:
    NodeKernel& kernel_;
  };

  // The record of `tid`, or nullptr when no thread has that id.
  Thread* find_thread(ThreadId tid) const;
  Thread& thread_mut(ThreadId tid);
  CoreState& core_state(hw::CoreId core);

  void enqueue_and_maybe_dispatch(Thread& thread);
  void maybe_dispatch(hw::CoreId core);
  void dispatch(hw::CoreId core, ThreadId tid);
  void begin_action(hw::CoreId core, Thread& thread);
  void start_burst(hw::CoreId core, Thread& thread);
  void on_burst_done(hw::CoreId core, ThreadId tid);
  void pause_burst(hw::CoreId core);  // charge elapsed, cancel event
  void finish_action(hw::CoreId core, Thread& thread);
  void release_core(hw::CoreId core);
  void on_irq_end(hw::CoreId core);
  void charge_burst(CoreState& cs, Thread& thread, SimTime elapsed);
  void destroy_thread(Thread& thread);

  sim::Simulator& sim_;
  const hw::NodeTopology& topology_;
  hw::CpuSet owned_cores_;
  KernelCosts costs_;
  sim::TraceBuffer* trace_;
  obs::Counter* interrupt_ns_counter_ = nullptr;

  std::vector<CoreState> cores_;
  // Thread records by tid - 1: tids are dense and a record outlives its
  // thread, so the next tid is size() + 1.
  std::vector<std::unique_ptr<Thread>> threads_;
  std::unordered_map<Pid, std::unique_ptr<Process>> processes_;
  Pid next_pid_ = 1;
  std::size_t live_threads_ = 0;
};

}  // namespace hpcos::os
