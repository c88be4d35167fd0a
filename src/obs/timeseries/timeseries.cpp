#include "obs/timeseries/timeseries.h"

#include <algorithm>

#include "common/check.h"
#include "obs/prof/mem.h"
#include "sim/simulator.h"

namespace hpcos::obs::ts {

void SeriesBucket::combine(const SeriesBucket& other) {
  if (other.count == 0) return;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

TimeSeries::TimeSeries(SimTime resolution, std::size_t capacity)
    : resolution_(resolution), capacity_(capacity) {
  HPCOS_CHECK_MSG(resolution > SimTime::zero(),
                  "series resolution must be positive");
  HPCOS_CHECK_MSG(capacity >= 2, "series capacity must be at least 2");
  buckets_.resize(capacity_);
  static const prof::AllocCounter alloc("timeseries.buckets");
  alloc.add(capacity_ * sizeof(SeriesBucket));
}

void TimeSeries::record_n(SimTime t, double value, std::uint64_t weight) {
  HPCOS_CHECK_MSG(capacity_ > 0, "recording into a default-constructed series");
  HPCOS_CHECK_MSG(!t.is_negative(), "series sample before t = 0");
  if (weight == 0) return;
  auto index = static_cast<std::size_t>(t.count_ns() / resolution_.count_ns());
  while (index >= capacity_) {
    coarsen();
    index = static_cast<std::size_t>(t.count_ns() / resolution_.count_ns());
  }
  SeriesBucket& b = buckets_[index];
  b.min = std::min(b.min, value);
  b.max = std::max(b.max, value);
  b.sum += value * static_cast<double>(weight);
  b.count += weight;
  used_ = std::max(used_, index + 1);
}

void TimeSeries::coarsen() {
  HPCOS_CHECK_MSG(capacity_ > 0, "coarsening a default-constructed series");
  const std::size_t pairs = (used_ + 1) / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    SeriesBucket merged = buckets_[2 * i];
    if (2 * i + 1 < used_) merged.combine(buckets_[2 * i + 1]);
    buckets_[i] = merged;
  }
  for (std::size_t i = pairs; i < used_; ++i) buckets_[i] = SeriesBucket{};
  used_ = pairs;
  resolution_ = resolution_ * 2;
  ++coarsens_;
}

void TimeSeries::merge(const TimeSeries& other) {
  HPCOS_CHECK_MSG(capacity_ > 0 && other.capacity_ > 0,
                  "merging a default-constructed series");
  HPCOS_CHECK_MSG(capacity_ == other.capacity_,
                  "merging series with different capacities");
  // Align resolutions: coarsen the finer side. Both sides started from the
  // same base resolution upstream, so the ratio is a power of two.
  while (resolution_ < other.resolution_) coarsen();
  const TimeSeries* src = &other;
  TimeSeries aligned;
  if (resolution_ > other.resolution_) {
    aligned = other;
    while (aligned.resolution_ < resolution_) aligned.coarsen();
    src = &aligned;
  }
  HPCOS_CHECK_MSG(resolution_ == src->resolution_,
                  "series resolutions are not power-of-two related");
  for (std::size_t i = 0; i < src->used_; ++i) {
    buckets_[i].combine(src->buckets_[i]);
  }
  used_ = std::max(used_, src->used_);
  coarsens_ = std::max(coarsens_, src->coarsens_);
}

double TimeSeries::total_sum() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < used_; ++i) sum += buckets_[i].sum;
  return sum;
}

std::uint64_t TimeSeries::total_count() const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < used_; ++i) count += buckets_[i].count;
  return count;
}

TimeSeries* SeriesSet::series(const std::string& name, SimTime resolution,
                              std::size_t capacity) {
  for (auto& e : entries_) {
    if (e.name == name) return e.series.get();
  }
  entries_.push_back(
      {name, std::make_unique<TimeSeries>(resolution, capacity)});
  return entries_.back().series.get();
}

const TimeSeries* SeriesSet::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.series.get();
  }
  return nullptr;
}

std::vector<std::pair<std::string, const TimeSeries*>> SeriesSet::sorted()
    const {
  std::vector<std::pair<std::string, const TimeSeries*>> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.emplace_back(e.name, e.series.get());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

NodeTimeGrid::NodeTimeGrid(std::int64_t nodes, SimTime duration,
                           std::size_t rows, std::size_t cols)
    : nodes_(nodes), duration_(duration), rows_(rows), cols_(cols) {
  HPCOS_CHECK(nodes >= 1 && rows >= 1 && cols >= 1);
  HPCOS_CHECK_MSG(duration > SimTime::zero(),
                  "grid duration must be positive");
  rows_ = std::min(rows_, static_cast<std::size_t>(nodes));
  cells_.assign(rows_ * cols_, 0.0);
}

void NodeTimeGrid::add(std::int64_t node, SimTime t, double value) {
  HPCOS_CHECK_MSG(!cells_.empty(), "adding to an empty grid");
  HPCOS_CHECK(node >= 0 && node < nodes_);
  const auto row = static_cast<std::size_t>(
      node * static_cast<std::int64_t>(rows_) / nodes_);
  auto col = static_cast<std::size_t>(
      (t.count_ns() * static_cast<std::int64_t>(cols_)) /
      duration_.count_ns());
  col = std::min(col, cols_ - 1);
  cells_[std::min(row, rows_ - 1) * cols_ + col] += value;
}

void NodeTimeGrid::merge(const NodeTimeGrid& other) {
  if (other.cells_.empty()) return;
  if (cells_.empty()) {
    *this = other;
    return;
  }
  HPCOS_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                  "merging grids with different shapes");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] += other.cells_[i];
  }
}

double NodeTimeGrid::max_cell() const {
  double m = 0.0;
  for (double c : cells_) m = std::max(m, c);
  return m;
}

double NodeTimeGrid::total() const {
  double t = 0.0;
  for (double c : cells_) t += c;
  return t;
}

std::int64_t NodeTimeGrid::row_first_node(std::size_t row) const {
  // Inverse of the forward binning: smallest node with
  // node * rows / nodes == row.
  const auto r = static_cast<std::int64_t>(row);
  return (r * nodes_ + static_cast<std::int64_t>(rows_) - 1) /
         static_cast<std::int64_t>(rows_);
}

RegistrySampler::RegistrySampler(Read read, SeriesSet* out, SimTime period,
                                 std::size_t capacity, std::string prefix)
    : read_(std::move(read)),
      out_(out),
      period_(period),
      capacity_(capacity),
      prefix_(std::move(prefix)) {
  HPCOS_CHECK(read_ != nullptr);
  HPCOS_CHECK(out != nullptr);
  HPCOS_CHECK_MSG(period > SimTime::zero(),
                  "sampler period must be positive");
}

void RegistrySampler::poll(SimTime now) {
  if (have_last_ && now < last_ + period_) return;
  prof::CounterSnapshot snap = read_();
  if (have_last_) {
    for (const prof::CounterValue& c : snap.counters) {
      out_->series(prefix_ + c.name, period_, capacity_)
          ->record(now, static_cast<double>(
                            c.value - last_snapshot_.value(c.name)));
    }
    ++samples_;
  }
  last_ = now;
  last_snapshot_ = std::move(snap);
  have_last_ = true;
}

void RegistrySampler::schedule(sim::Simulator& sim, SimTime until) {
  poll(sim.now());
  if (sim.now() + period_ > until) return;
  sim.schedule_after(
      period_, [this, &sim, until] { schedule(sim, until); }, "obs.sampler");
}

}  // namespace hpcos::obs::ts
