#include "linuxk/cfs_scheduler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hpcos::linuxk {
namespace {

double to_vr(SimTime t) { return static_cast<double>(t.count_ns()); }

}  // namespace

CfsScheduler::CfsScheduler(std::size_t num_cores, hw::CpuSet owned_cores,
                           hw::CpuSet nohz_full_cores, CfsParams params,
                           RngStream rng)
    : owned_(std::move(owned_cores)),
      nohz_full_(std::move(nohz_full_cores)),
      params_(params),
      queues_(num_cores),
      rng_(rng) {}

CfsScheduler::Queue& CfsScheduler::queue(hw::CoreId core) {
  HPCOS_CHECK(core >= 0 &&
              static_cast<std::size_t>(core) < queues_.size());
  return queues_[static_cast<std::size_t>(core)];
}

const CfsScheduler::Queue& CfsScheduler::queue(hw::CoreId core) const {
  HPCOS_CHECK(core >= 0 &&
              static_cast<std::size_t>(core) < queues_.size());
  return queues_[static_cast<std::size_t>(core)];
}

hw::CoreId CfsScheduler::select_core(const os::Thread& thread,
                                     const os::CoreLoad& load) {
  // wake_affine: stick to the previous CPU when allowed — this is why
  // unbound daemons keep landing on application cores once they have run
  // there. Fresh threads (no previous core) pick a random allowed core,
  // then load balancing below evens things out over time. Allowed means
  // in the affinity and owned, tested per core in ascending order.
  HPCOS_CHECK_MSG(thread.affinity.intersects(owned_),
                  "no allowed core for thread");
  const hw::CpuSet& aff = thread.affinity;

  if (aff.test(thread.core) && owned_.test(thread.core)) {
    // Stay unless clearly imbalanced (another allowed core is idle while
    // this one is contended).
    if (load.at(thread.core) <= 1) return thread.core;
    for (hw::CoreId c = aff.first(); c != hw::kInvalidCore; c = aff.next(c)) {
      if (owned_.test(c) && load.at(c) == 0) return c;
    }
    return thread.core;
  }

  // Initial placement: uniformly random among the least-loaded allowed
  // cores (deterministic under the seed): one pass finds the least load
  // and how many cores carry it, one draw picks the k-th of them.
  std::size_t best = std::numeric_limits<std::size_t>::max();
  std::size_t ties = 0;
  for (hw::CoreId c = aff.first(); c != hw::kInvalidCore; c = aff.next(c)) {
    if (!owned_.test(c)) continue;
    const std::size_t l = load.at(c);
    if (l < best) {
      best = l;
      ties = 0;
    }
    if (l == best) ++ties;
  }
  std::size_t k = rng_.uniform_index(ties);
  for (hw::CoreId c = aff.first();; c = aff.next(c)) {
    if (owned_.test(c) && load.at(c) == best && k-- == 0) return c;
  }
}

void CfsScheduler::enqueue(hw::CoreId core, os::Thread& thread) {
  Queue& q = queue(core);
  // Sleeper credit: a woken thread re-enters near the core's fair clock,
  // bounded below so long sleepers cannot monopolize the CPU.
  thread.vruntime = std::max(
      thread.vruntime, q.min_vruntime - to_vr(params_.sleeper_credit));
  q.threads.push_back(&thread);
  thread.queued_on = core;
}

os::ThreadId CfsScheduler::pick_next(hw::CoreId core) {
  Queue& q = queue(core);
  if (q.threads.empty()) return os::kInvalidThread;
  auto it = std::min_element(q.threads.begin(), q.threads.end(),
                             [](const os::Thread* a, const os::Thread* b) {
                               return a->vruntime < b->vruntime;
                             });
  os::Thread* t = *it;
  q.threads.erase(it);
  t->queued_on = hw::kInvalidCore;
  q.min_vruntime = std::max(q.min_vruntime, t->vruntime);
  return t->tid;
}

void CfsScheduler::remove(os::Thread& thread) {
  if (thread.queued_on == hw::kInvalidCore) return;
  std::erase(queue(thread.queued_on).threads, &thread);
  thread.queued_on = hw::kInvalidCore;
}

std::size_t CfsScheduler::runnable_count(hw::CoreId core) const {
  return queue(core).threads.size();
}

bool CfsScheduler::preempt_on_wakeup(const os::Thread& woken,
                                     const os::Thread& running) const {
  return woken.vruntime + to_vr(params_.granularity) < running.vruntime;
}

bool CfsScheduler::needs_tick(hw::CoreId core, bool core_busy) const {
  if (!core_busy) return false;  // nohz idle
  if (!nohz_full_.test(core)) return true;
  // nohz_full: the tick restarts as soon as a second task is runnable.
  return runnable_count(core) > 0;
}

bool CfsScheduler::should_resched_on_tick(hw::CoreId core,
                                          os::Thread& running) {
  const Queue& q = queue(core);
  if (q.threads.empty()) return false;
  const double waiting_min =
      (*std::min_element(q.threads.begin(), q.threads.end(),
                         [](const os::Thread* a, const os::Thread* b) {
                           return a->vruntime < b->vruntime;
                         }))
          ->vruntime;
  return waiting_min + to_vr(params_.granularity) < running.vruntime;
}

void CfsScheduler::charge(os::Thread& thread, SimTime elapsed) {
  thread.vruntime += to_vr(elapsed);
  if (thread.core != hw::kInvalidCore) {
    Queue& q = queue(thread.core);
    q.min_vruntime = std::max(q.min_vruntime, thread.vruntime);
  }
}

}  // namespace hpcos::linuxk
