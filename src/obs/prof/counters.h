// Host-counter table: the process-global home of every host-side counter.
//
// One table of named relaxed-atomic counters serves the three consumers
// that used to keep their own: the live progress feed (live.*, sampled by
// the ProgressMeter in obs/live/live.h), per-subsystem allocation counters
// (mem.<site>.bytes / mem.<site>.events, see obs/prof/mem.h) and the
// parallel_for scheduler's health (parallel.*, listed in
// common/parallel.h).
//
//   * host_counter(name) finds or creates a counter and returns a pointer
//     that stays valid for the life of the process. Lookup takes a mutex,
//     so a site looks its counter up once and caches the pointer.
//   * add / set / note_max are relaxed atomics on a cache-line-aligned
//     slot: concurrent writers never false-share, and the values are
//     statistics, never synchronization.
//   * host_counter_snapshot() is the one read path: a name-sorted copy of
//     the table (near-consistent, not a barrier).
//
// CounterSnapshot is also the read form of the simulated node's kernel
// counters (cluster::SimNode::counters()), so OpenMetrics, BenchReport
// metrics and the time-series sampler take one (name, value) list
// whatever the counters count.
//
// The table is std-only, like the profiler, so the bottom layers
// (common/parallel, sim/simulator) write to it without a dependency
// cycle. Host counters never feed deterministic outputs: they are
// reported only under host.* names.
//
// Names follow the repo rule <subsystem>.<object>[.<detail>].
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpcos::obs::prof {

class alignas(64) HostCounter {
 public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  // Gauge write: the last reported value wins.
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  // Monotonic max across all writers.
  void note_max(std::uint64_t v) {
    std::uint64_t prev = value_.load(std::memory_order_relaxed);
    while (prev < v && !value_.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Find-or-create; the pointer is stable for the life of the process.
HostCounter* host_counter(const std::string& name);

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct CounterSnapshot {
  std::vector<CounterValue> counters;  // name-sorted

  // Value of `name`, 0 when the snapshot has no such counter.
  std::uint64_t value(std::string_view name) const;
};
CounterSnapshot host_counter_snapshot();

// Zero every counter whose name starts with `prefix`. Callers quiesce the
// writers first (the ProgressMeter zeroes live.* before it arms the feed).
void reset_host_counters(std::string_view prefix);

// The live feed: what the ProgressMeter samples for its heartbeats.
// Events are fine-grained work (DES events, campaign iterations); units
// are coarse completion steps (campaign shards, bench plan points) that
// give the ETA; sim time and the DES depth max are monotonic maxima
// across every reporting simulator.
inline constexpr const char* kLiveEvents = "live.events";
inline constexpr const char* kLiveUnitsTotal = "live.units.total";
inline constexpr const char* kLiveUnitsDone = "live.units.done";
inline constexpr const char* kLiveSimTimeNs = "live.sim_time_ns";
inline constexpr const char* kLiveDesDepth = "live.des.depth";
inline constexpr const char* kLiveDesMaxDepth = "live.des.max_depth";

// Live-feed switch. The per-event writer (Simulator::step) tests it
// before touching live.*, so an unwatched run pays one relaxed load per
// event (inline: no call); the ProgressMeter arms it while it runs.
namespace detail {
inline std::atomic<bool> live_feed{false};
}  // namespace detail
inline bool live_feed_enabled() {
  return detail::live_feed.load(std::memory_order_relaxed);
}
inline void set_live_feed(bool on) {
  detail::live_feed.store(on, std::memory_order_relaxed);
}

}  // namespace hpcos::obs::prof
