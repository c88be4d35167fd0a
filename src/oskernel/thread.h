// Thread model and the continuation-style execution API.
//
// Simulated programs (FWQ, daemons, workload ranks, the proxy process) are
// ThreadBody subclasses. The kernel calls step() whenever the previous
// action completes; step() must request exactly one next action through the
// ThreadContext. This callback structure gives us preemptible, blockable
// threads without coroutines while keeping bodies easy to write:
//
//   void step(ThreadContext& ctx) override {
//     if (++iter_ > n_) { ctx.exit(); return; }
//     ctx.compute(SimTime::from_ms(6.5));   // one FWQ work quantum
//   }
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/sim_time.h"
#include "hw/cpuset.h"
#include "oskernel/syscall.h"
#include "oskernel/types.h"

namespace hpcos::os {

class ThreadContext;

class ThreadBody {
 public:
  virtual ~ThreadBody() = default;
  // Request the next action. Called on first dispatch and after each
  // completed action.
  virtual void step(ThreadContext& ctx) = 0;
};

enum class ActionKind : std::uint8_t {
  kNone,
  kCompute,
  kSyscall,
  kSleep,
  kExit,
};

struct PendingAction {
  ActionKind kind = ActionKind::kNone;
  SimTime duration;  // compute work or sleep length
  SyscallRequest syscall;
};

// Passed to ThreadBody::step(); records the chosen action and exposes
// thread-visible state.
class ThreadContext {
 public:
  // --- actions (choose exactly one per step) ---
  void compute(SimTime work);
  void invoke(Syscall no, SyscallArgs args = {});
  void sleep_for(SimTime dt);
  void exit();

  // --- observable state ---
  SimTime now() const { return now_; }
  ThreadId tid() const { return tid_; }
  Pid pid() const { return pid_; }
  hw::CoreId core() const { return core_; }
  // Result of the most recently completed syscall.
  const SyscallResult& last_syscall() const { return last_result_; }

 private:
  friend class NodeKernel;
  PendingAction action_;
  bool action_set_ = false;
  SimTime now_;
  ThreadId tid_ = kInvalidThread;
  Pid pid_ = kInvalidPid;
  hw::CoreId core_ = hw::kInvalidCore;
  SyscallResult last_result_;
};

struct SpawnAttrs {
  std::string name;
  Pid pid = kInvalidPid;  // kInvalidPid => kernel assigns a fresh process
  hw::CpuSet affinity;    // empty => all owned cores
  bool kernel_thread = false;
  // Background (daemon/service) thread: its CPU residency is traced as
  // interference so the §4.2.1 analysis can attribute it.
  bool background = false;
};

// Kernel-internal thread record. Owned by NodeKernel; exposed read-only to
// tests and schedulers.
struct Thread {
  ThreadId tid = kInvalidThread;
  Pid pid = kInvalidPid;
  std::string name;
  hw::CpuSet affinity;
  bool kernel_thread = false;
  bool background = false;

  ThreadState state = ThreadState::kReady;
  hw::CoreId core = hw::kInvalidCore;  // current/last core

  std::unique_ptr<ThreadBody> body;
  PendingAction action;
  SimTime remaining;  // unfinished burst time (compute or kernel service)
  ExecMode burst_mode = ExecMode::kUser;
  SyscallResult last_result;

  // Accounting.
  SimTime user_time;
  SimTime kernel_time;
  std::uint64_t involuntary_switches = 0;

  // Scheduler state (interpreted by the active scheduler).
  double vruntime = 0.0;
  // Core whose run queue holds this thread, or kInvalidCore.
  hw::CoreId queued_on = hw::kInvalidCore;

  bool runnable() const {
    return state == ThreadState::kReady || state == ThreadState::kRunning;
  }
};

}  // namespace hpcos::os
