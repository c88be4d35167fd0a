#include "mckernel/lwk_scheduler.h"

#include <limits>

#include "common/check.h"

namespace hpcos::mck {

LwkScheduler::LwkScheduler(std::size_t num_cores, hw::CpuSet owned_cores)
    : owned_(std::move(owned_cores)), queues_(num_cores) {}

hw::CoreId LwkScheduler::select_core(const os::Thread& thread,
                                     const os::CoreLoad& load) {
  HPCOS_CHECK_MSG(thread.affinity.intersects(owned_),
                  "no allowed core for LWK thread");
  // Threads stay put once placed (the LWK never migrates); fresh threads
  // fill the least-loaded allowed core (in the affinity and owned), lowest
  // id first — matching mcexec's deterministic one-rank/thread-per-core
  // layout.
  const hw::CpuSet& aff = thread.affinity;
  if (aff.test(thread.core) && owned_.test(thread.core)) return thread.core;
  hw::CoreId best = hw::kInvalidCore;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (hw::CoreId c = aff.first(); c != hw::kInvalidCore; c = aff.next(c)) {
    if (!owned_.test(c)) continue;
    const std::size_t l = load.at(c);
    if (l < best_load) {
      best_load = l;
      best = c;
    }
  }
  return best;
}

void LwkScheduler::enqueue(hw::CoreId core, os::Thread& thread) {
  queues_.at(static_cast<std::size_t>(core)).push_back(&thread);
  thread.queued_on = core;
}

os::ThreadId LwkScheduler::pick_next(hw::CoreId core) {
  auto& q = queues_.at(static_cast<std::size_t>(core));
  if (q.empty()) return os::kInvalidThread;
  os::Thread* t = q.pop_front();
  t->queued_on = hw::kInvalidCore;
  ++dispatches_;
  return t->tid;
}

void LwkScheduler::remove(os::Thread& thread) {
  if (thread.queued_on == hw::kInvalidCore) return;
  queues_.at(static_cast<std::size_t>(thread.queued_on)).erase(&thread);
  thread.queued_on = hw::kInvalidCore;
}

std::size_t LwkScheduler::runnable_count(hw::CoreId core) const {
  return queues_.at(static_cast<std::size_t>(core)).size();
}

bool LwkScheduler::preempt_on_wakeup(const os::Thread&,
                                     const os::Thread&) const {
  return false;  // strictly co-operative
}

bool LwkScheduler::needs_tick(hw::CoreId, bool) const {
  return false;  // tick-less
}

bool LwkScheduler::should_resched_on_tick(hw::CoreId, os::Thread&) {
  return false;
}

void LwkScheduler::charge(os::Thread&, SimTime) {}

}  // namespace hpcos::mck
