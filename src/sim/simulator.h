// Discrete-event simulation core.
//
// The whole node model runs on this engine: kernel ticks, IRQs, daemon
// wakeups, compute-burst completions and IKC message deliveries are all
// events. Determinism is guaranteed by a strict (time, sequence) total
// order: two events at the same instant fire in scheduling order, so a run
// is a pure function of (configuration, seed) regardless of host threading.
//
// Self-observability (the instrumentation the calendar-queue rewrite will
// be judged against — see EXPERIMENTS.md "Profiling the simulator"):
//   * queue_telemetry() — always-on push/pop/cancel/max-depth counters
//     (plain single-writer increments; cost is in the noise).
//   * set_depth_probe() — optional queue-depth hook invoked after every
//     push and every executed event; tools feed it into an
//     obs::ts::TimeSeries to get the depth-over-virtual-time series. One
//     branch when unset.
//   * Event tags + handler attribution — schedule sites may pass a static
//     string tag ("linux.tick", "ikc.deliver"); while the host profiler
//     is enabled, step() times each handler under a "des.fire.<tag>"
//     profiler scope, decomposing the DES hot loop's cost by handler kind
//     (the profile's scope counts and times are the attribution). Zero
//     timing overhead while the profiler is disabled (one branch per
//     event).
//   * Live feed — while a ProgressMeter runs (obs/live/live.h), step()
//     bumps the host-counter table's live.events and, every 512 events,
//     live.sim_time_ns / live.des.depth / live.des.max_depth
//     (obs/prof/counters.h). One branch per event while no meter runs.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "obs/prof/prof.h"

namespace hpcos::sim {

using EventFn = std::function<void()>;

// Handle for cancellation. Default-constructed ids are invalid.
struct EventId {
  std::uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

// Always-on event-queue counters (single-writer, no synchronization).
struct QueueTelemetry {
  std::uint64_t pushes = 0;      // schedule_at/schedule_after calls
  std::uint64_t pops = 0;        // live events popped and fired
  std::uint64_t cancels = 0;     // successful cancel() calls
  std::uint64_t skipped = 0;     // cancelled heap entries discarded on pop
  std::size_t max_depth = 0;     // peak pending-event count
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule fn at absolute time t (must be >= now()). `tag` labels the
  // handler for host-time attribution; it must point at storage that
  // outlives the simulator (string literals at call sites).
  EventId schedule_at(SimTime t, EventFn fn, const char* tag = nullptr);
  // Schedule fn `dt` after now (dt >= 0).
  EventId schedule_after(SimTime dt, EventFn fn, const char* tag = nullptr);

  // Cancel a pending event. Returns true when the event had not yet fired
  // (and had not been cancelled before).
  bool cancel(EventId id);

  // Execute the next pending event, if any. Returns false when the queue
  // is empty.
  bool step();

  // Run events with timestamp <= t_end, then advance the clock to t_end.
  // Returns the number of events executed.
  std::size_t run_until(SimTime t_end);

  // Run until the queue drains or `max_events` have executed (a guard
  // against runaway self-scheduling models).
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  bool has_pending() const { return !pending_.empty(); }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  const QueueTelemetry& queue_telemetry() const { return telemetry_; }

  // Queue-depth hook: probe(now, pending_count) after each push and each
  // executed event. Pass nullptr to detach.
  using DepthProbe = std::function<void(SimTime, std::size_t)>;
  void set_depth_probe(DepthProbe probe) { depth_probe_ = std::move(probe); }

 private:
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    bool operator>(const HeapEntry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  struct Pending {
    EventFn fn;
    const char* tag = nullptr;
  };

  // Tag -> "des.fire.<tag>" profiler scope; tags are looked up by pointer
  // identity first (string literals), falling back to a content match so
  // equal literals from different translation units share one scope.
  struct TagScope {
    const char* tag = nullptr;
    obs::prof::ScopeId scope = 0;
  };
  obs::prof::ScopeId fire_scope(const char* tag);
  void fire_profiled(Pending& ev);

  // Pops the next live heap entry into `out`; skips cancelled ones.
  bool pop_next(HeapEntry& out, Pending& ev);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  QueueTelemetry telemetry_;
  DepthProbe depth_probe_;
  std::vector<TagScope> tags_;
};

}  // namespace hpcos::sim
