// Counter/histogram registry: the substrate's PMU-and-/proc stand-in.
//
// The paper's methodology (§4.2) is to make every kernel mechanism
// quantifiable — ftrace for event attribution, PMU counters for time
// attribution. The Registry gives the simulated kernels the same property:
// each subsystem registers named counters (monotonic event counts) and
// log-histograms (latency/size distributions) once at construction, holds
// the returned raw pointer, and bumps it on the hot path.
//
// Hot-path cost discipline:
//   * Instrumented components hold a nullable Counter*/LogHistogram*; a
//     site compiles to one branch plus one increment when observability is
//     on, and exactly one branch when it is off (registry == nullptr at
//     wiring time — see obs::bump / obs::observe).
//   * No locks anywhere on the increment path. Registration (name lookup)
//     allocates, but follows the simulator's single-writer discipline: a
//     Registry belongs to one simulation (one SimNode / one campaign) and
//     is never shared across host worker threads. Parallel campaign code
//     accumulates shard-locally and folds into the Registry during the
//     serial merge (see cluster/fwq_campaign.cpp).
//
// Counter naming convention (see EXPERIMENTS.md "Observability"):
//   <subsystem>.<object>[.<detail>]   e.g. ikc.to_host.posted,
//   offload.requests, lwk.sched.dispatches, linux.tlb.shootdown_ipis,
//   offload.rtt_us, fwq.topk.evictions. Units are encoded as the last
//   name segment when not "events" (_ns, _us, _bytes).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace hpcos::obs {

// Monotonically increasing event count. Plain (non-atomic) on purpose:
// single-writer per simulation, zero synchronization on the hot path.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// One branch when disabled, one increment when enabled.
inline void bump(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->add(n);
}
inline void observe(LogHistogram* h, double value) {
  if (h != nullptr) h->add(value);
}

// Point-in-time view of a Registry, with value-delta support so a
// measurement window can be isolated: snapshot before, snapshot after,
// delta(after, before).
struct Snapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  // Both sorted by name (registries enumerate deterministically).
  std::vector<CounterEntry> counters;
  std::vector<HistogramEntry> histograms;

  // Counters subtract; histogram entries keep the *current* quantiles with
  // the count difference (log-binned quantiles are not invertible, and the
  // window's distribution is dominated by the window's samples in every
  // intended use).
  static Snapshot delta(const Snapshot& after, const Snapshot& before);
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create. The returned pointer is stable for the Registry's
  // lifetime; callers cache it at wiring time and never look up again.
  Counter* counter(const std::string& name);
  // Find-or-create with log-spaced bins over [min_value, max_value]. A
  // re-registration under the same name returns the existing histogram
  // (the first registration's layout wins).
  LogHistogram* histogram(const std::string& name, double min_value,
                          double max_value, std::size_t num_bins);

  // Lookup without creation (nullptr when absent) — for tests and report
  // tools.
  const Counter* find_counter(const std::string& name) const;

  std::size_t counter_count() const { return counters_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }

  Snapshot snapshot() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> value;
  };
  // Linear-scan vectors: registration happens O(subsystems) times at
  // wiring, never on the hot path, and enumeration order must be
  // deterministic.
  std::vector<Named<Counter>> counters_;
  std::vector<Named<LogHistogram>> histograms_;
};

}  // namespace hpcos::obs
