// Host-side parallelism for the cluster engine.
//
// Node simulations are embarrassingly parallel and deterministic by
// construction (each node owns its RNG streams and event queue), so a
// chunked parallel_for is all we need: results land in caller-provided,
// index-addressed storage with no cross-thread shared mutable state, and
// callers merge per-slot results in rank order. Execution runs on a
// lazily initialized work-stealing scheduler: each participant owns a
// chunk deque (lock-free local pop from the bottom, randomized-victim
// steal from the top), and every parallel_for forms a task group whose
// chunks any participant may execute. Scheduling order is therefore
// nondeterministic, but each index runs exactly once and results are
// index-addressed, so outputs — and every shard-ordered merge built on
// them — are bit-identical across host thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace hpcos {

// Number of worker threads to use by default. On Linux this is the CPU
// affinity-mask population (sched_getaffinity), which respects taskset /
// cpuset / container quotas where std::thread::hardware_concurrency()
// over-reports; elsewhere it falls back to hardware_concurrency(). At
// least 1.
std::size_t default_parallelism();

// Maximum number of threads a single parallel_for can occupy: the
// scheduler's worker count plus the calling thread. The pool is sized
// once at first use from default_parallelism() (override:
// HPCOS_PARALLEL_WORKERS=<n> in the environment, clamped to [1, 256]);
// requests with threads > parallel_capacity() are honored up to this
// capacity rather than silently assuming helpers that don't exist.
std::size_t parallel_capacity();

// Per-slot scheduler health since process start. Slot 0 is the external
// caller slot (whichever thread holds the top-level session); slots
// 1..n are the persistent workers. Counters are single-writer relaxed
// atomics read with relaxed loads, so the vector is a near-consistent
// snapshot, not a barrier. Deque depths are sampled once per
// parallel_for at publish time (after the owner pushed its chunks), so
// depth_sum / depth_samples is "average backlog seen at dispatch" and
// max_depth the worst backlog any dispatch observed.
struct WorkerHealth {
  std::uint64_t chunks = 0;          // chunks this slot executed
  std::uint64_t pushes = 0;          // chunks this slot published
  std::uint64_t steals = 0;          // successful steals by this slot
  std::uint64_t steal_attempts = 0;  // steal probes by this slot
  std::uint64_t parks = 0;           // times this slot slept on the cv
  std::uint64_t park_ns = 0;         // total host time spent parked
  std::uint64_t depth_sum = 0;       // sum of sampled deque depths
  std::uint64_t depth_samples = 0;   // number of depth samples taken
  std::uint64_t max_depth = 0;       // max sampled deque depth
};
std::vector<WorkerHealth> parallel_worker_health();

// All slots summed (max_depth: the maximum over slots) — the scheduler's
// whole-pool chunk, steal and park totals. The dispatch counters live in
// the host-counter table (obs/prof/counters.h): parallel.wakeups (sleeping
// workers woken), parallel.groups (parallel_for task groups dispatched)
// and parallel.nested_groups (the subset issued from inside a region).
WorkerHealth parallel_health_total();

// Instantaneous per-slot deque depths (index 0 = caller slot). Two
// relaxed loads per slot — a near-consistent snapshot for live
// diagnostics (the stall watchdog's "where is the backlog" view), never
// for control flow.
std::vector<std::size_t> parallel_deque_depths();

// Invoke fn(i) for every i in [0, count) across up to `threads` workers
// (0 = default_parallelism(), 1 = inline serial execution; values above
// parallel_capacity() are clamped to it).
//
// Nesting: a call made from inside a running parallel_for (any depth)
// enqueues its chunks into the scheduler as a child task group instead
// of degrading to serial. The nested caller works on its own chunks and
// idle participants steal the rest, so inner loops genuinely
// parallelize; the nested call returns once its group completes.
// Top-level calls from distinct user threads still serialize against
// each other.
//
// Cancellation: once any invocation throws, a per-group stop flag halts
// the remaining dispatch at chunk granularity — participants finish the
// chunk they hold but claim no new ones — and the first exception is
// rethrown on the thread that issued that parallel_for after the group
// quiesces. Cancellation propagates downward: chunks of nested (child)
// groups under a cancelling ancestor are discarded at the same chunk
// granularity, and such a nested call may then return normally without
// having visited every index (its own group saw no exception; the
// ancestor's rethrow reports the failure). Do not rely on full coverage
// when fn can throw anywhere in the enclosing nest.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace hpcos
