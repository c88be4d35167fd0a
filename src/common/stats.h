// Streaming and batch statistics used by the noise metrics, the FWQ
// harness, and the benchmark tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hpcos {

// Numerically stable single-pass mean/variance (Welford) plus min/max.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Batch percentile over an explicit sample set. Sorts a copy; use
// percentile_sorted when the data is already ordered.
double percentile(std::span<const double> samples, double p);
// p in [0, 100]; linear interpolation between closest ranks.
double percentile_sorted(std::span<const double> sorted, double p);

// Summary of a sample set, convenient for table rows.
struct SampleSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

SampleSummary summarize(std::span<const double> samples);

}  // namespace hpcos
