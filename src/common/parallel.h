// Host-side parallelism for the cluster engine.
//
// Node simulations are embarrassingly parallel and deterministic by
// construction (each node owns its RNG streams and event queue), so a
// chunked parallel_for is all we need: results land in caller-provided,
// index-addressed storage with no cross-thread shared mutable state, and
// callers merge per-slot results in rank order. Execution runs on a
// lazily initialized worker pool fed by one mutex-guarded queue of open
// task groups: every parallel_for forms a group whose chunks any
// participant may claim. Scheduling order is therefore nondeterministic,
// but each index runs exactly once and results are index-addressed, so
// outputs — and every shard-ordered merge built on them — are
// bit-identical across host thread counts.
//
// Scheduler health lives in the host-counter table (obs/prof/counters.h):
// parallel.groups (task groups dispatched), parallel.nested_groups (the
// subset issued from inside a region), parallel.chunks (chunks run),
// parallel.steals (chunks run by a thread other than the one that issued
// their group), parallel.wakeups (sleeping workers notified),
// parallel.parks / parallel.park_ns (worker sleeps and their host time),
// the parallel.backlog gauge (unclaimed chunks right now) and
// parallel.max_backlog (the largest backlog any dispatch left).
#pragma once

#include <cstddef>
#include <functional>

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

// Invoke fn(i) for every i in [0, count) across up to `threads` workers
// (0 = default_parallelism(), 1 = inline serial execution; values above
// parallel_capacity() are clamped to it). Chunks hold
// max(1, count / (threads * 8)) consecutive indices.
//
// Nesting: a call made from inside a running parallel_for (any depth)
// enqueues its chunks into the scheduler as a child task group instead
// of degrading to serial. The nested caller works on its own chunks and
// idle participants claim the rest, so inner loops genuinely
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
