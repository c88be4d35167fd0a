// Bounded-memory streaming time series on the simulated clock.
//
// The paper's signature plots are timelines, not totals: Figure 3 shows
// per-countermeasure noise over a run on one node, Figure 4 profiles OS
// noise across all 158,976 Fugaku nodes. Cumulative counters and the
// span traces can't answer "what did metric X look like *over* the run"
// without replaying a full trace, so this module adds the streaming view:
//
//  * TimeSeries — a ring of `capacity` buckets over virtual time starting
//    at t = 0, each keeping min/max/sum/count. When a sample lands beyond
//    the covered window the series coarsens 2x (adjacent bucket pairs
//    merge, the resolution doubles), so memory is bounded regardless of
//    run length. All state is plain min/max/sum/count, so shard-order
//    merges follow the repo's determinism discipline (bit-identical for
//    any host thread count).
//  * SeriesSet — a find-or-create collection of named series with
//    deterministic (sorted) enumeration for exporters.
//  * NodeTimeGrid — the Figure 4 analogue: a fixed rows x cols
//    node-bin x time-bin accumulation grid, merged elementwise in shard
//    order.
//  * RegistrySampler — periodic counter-snapshot deltas (a DES node's
//    SimNode::counters(), say) turned into per-counter series ("what rate
//    did linux.interrupt_ns run at during each window"), drivable
//    manually (poll) or off a DES simulator (schedule).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/prof/counters.h"

namespace hpcos::sim {
class Simulator;
}  // namespace hpcos::sim

namespace hpcos::obs::ts {

struct SeriesBucket {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  std::uint64_t count = 0;

  bool empty() const { return count == 0; }
  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  void combine(const SeriesBucket& other);
};

class TimeSeries {
 public:
  // Default-constructed series are empty placeholders (capacity 0); every
  // usable series needs a positive resolution and capacity >= 2 (2x
  // coarsening needs at least one pair).
  TimeSeries() = default;
  TimeSeries(SimTime resolution, std::size_t capacity);

  void record(SimTime t, double value) { record_n(t, value, 1); }
  // Weighted sample: `weight` occurrences of `value` at time t (how the
  // campaign's bulk-iteration ocean enters without materializing).
  void record_n(SimTime t, double value, std::uint64_t weight);

  // Merge adjacent bucket pairs and double the resolution. Exposed for
  // tests; record_n applies it automatically on overflow.
  void coarsen();

  // Merge another series sampled on the same base resolution (the finer
  // side is coarsened until the resolutions match — they must be related
  // by a power of two). Bucket combination is min/max/sum/count, merged
  // in call order (shard order upstream).
  void merge(const TimeSeries& other);

  SimTime resolution() const { return resolution_; }
  std::size_t capacity() const { return capacity_; }
  // Buckets in use; never exceeds capacity() (the bounded-memory
  // invariant the tests pin).
  std::size_t bucket_count() const { return used_; }
  std::uint64_t coarsen_count() const { return coarsens_; }

  const SeriesBucket& bucket(std::size_t i) const { return buckets_.at(i); }
  SimTime bucket_start(std::size_t i) const {
    return resolution_ * static_cast<std::int64_t>(i);
  }
  // End of the covered window (capacity * resolution).
  SimTime window_end() const {
    return resolution_ * static_cast<std::int64_t>(capacity_);
  }

  double total_sum() const;
  std::uint64_t total_count() const;

 private:
  SimTime resolution_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::uint64_t coarsens_ = 0;
  std::vector<SeriesBucket> buckets_;
};

// Find-or-create collection of named series; the returned pointer is
// stable for the set's lifetime (single writer, no hot-path locks).
class SeriesSet {
 public:
  SeriesSet() = default;
  SeriesSet(const SeriesSet&) = delete;
  SeriesSet& operator=(const SeriesSet&) = delete;

  TimeSeries* series(const std::string& name, SimTime resolution,
                     std::size_t capacity);
  const TimeSeries* find(const std::string& name) const;
  std::size_t size() const { return entries_.size(); }

  // Name-sorted view for exporters (deterministic enumeration).
  std::vector<std::pair<std::string, const TimeSeries*>> sorted() const;

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<TimeSeries> series;
  };
  std::vector<Entry> entries_;
};

// Fixed-size node x time accumulation grid (the Figure 4 full-machine
// heatmap, downsampled at ingest so memory is rows * cols regardless of
// node count or run length).
class NodeTimeGrid {
 public:
  NodeTimeGrid() = default;
  NodeTimeGrid(std::int64_t nodes, SimTime duration, std::size_t rows,
               std::size_t cols);

  bool empty() const { return cells_.empty(); }
  void add(std::int64_t node, SimTime t, double value);
  // Elementwise add; shapes must match. Merged in shard order upstream.
  void merge(const NodeTimeGrid& other);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::int64_t nodes() const { return nodes_; }
  SimTime duration() const { return duration_; }
  double cell(std::size_t row, std::size_t col) const {
    return cells_.at(row * cols_ + col);
  }
  double max_cell() const;
  double total() const;
  // First node id binned into `row` (rows partition [0, nodes)).
  std::int64_t row_first_node(std::size_t row) const;

 private:
  std::int64_t nodes_ = 0;
  SimTime duration_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> cells_;
};

// Periodic counter-snapshot deltas -> per-counter series. `read` returns
// the counters' current values (obs cannot see the DES node, so the caller
// passes e.g. [&node] { return node->counters(); }). Counter names are
// prefixed with `prefix` (e.g. "linux-node."); each sample records the
// counter's increase since the previous sample at the poll time.
class RegistrySampler {
 public:
  using Read = std::function<prof::CounterSnapshot()>;

  RegistrySampler(Read read, SeriesSet* out, SimTime period,
                  std::size_t capacity = 256, std::string prefix = "");

  // Take a sample when at least one period elapsed since the last one
  // (no-op otherwise, so callers can poll opportunistically from a
  // driver loop).
  void poll(SimTime now);

  // Self-rescheduling periodic sampling on a DES simulator until `until`
  // (inclusive). The sampler must outlive the simulator's run.
  void schedule(sim::Simulator& sim, SimTime until);

  std::uint64_t samples() const { return samples_; }

 private:
  Read read_;
  SeriesSet* out_;
  SimTime period_;
  std::size_t capacity_;
  std::string prefix_;
  bool have_last_ = false;
  SimTime last_;
  prof::CounterSnapshot last_snapshot_;
  std::uint64_t samples_ = 0;
};

}  // namespace hpcos::obs::ts
