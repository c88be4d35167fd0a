// Latency histogram and empirical CDF containers.
//
// The evaluation plots (Figure 4 in particular) are cumulative distribution
// functions of FWQ iteration lengths aggregated over tens of thousands of
// cores. LogHistogram keeps memory bounded while preserving the tail
// resolution those plots need; EmpiricalCdf keeps exact samples for the
// smaller data sets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace hpcos {

// Histogram with logarithmically spaced bins between [min_value, max_value].
// Values outside the range are clamped into the first/last bin, so the total
// count is always the number of add() calls. A NaN value throws
// std::invalid_argument and leaves the histogram unchanged.
//
// Binning is exact table lookup: the layout's table maps a value's IEEE-754
// bit pattern to its bin without a std::log, and agrees bit for bit with the
// log formula, which stays as the fallback near bin edges (DESIGN §6).
class LogHistogram {
 public:
  LogHistogram(double min_value, double max_value, std::size_t num_bins);

  void add(double value) { add_n(value, 1); }
  void add_n(double value, std::uint64_t n);
  void merge(const LogHistogram& other);

  std::uint64_t total_count() const { return total_; }
  std::size_t num_bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  // Geometric midpoint of bin i.
  double bin_center(std::size_t i) const;
  double bin_lower(std::size_t i) const;
  double bin_upper(std::size_t i) const;

  // Value below which fraction q of the samples fall (q in [0,1]); uses the
  // bin upper edge, so it is an upper bound on the true quantile.
  double quantile(double q) const;
  double observed_max() const { return observed_max_; }
  double observed_min() const { return observed_min_; }

  // (value, cumulative_fraction) pairs for plotting; one point per
  // non-empty bin.
  std::vector<std::pair<double, double>> cdf_points() const;

 private:
  struct BinTable;

  std::size_t bin_index(double value) const;
  std::size_t bin_index_by_log(double value) const;
  std::shared_ptr<const BinTable> shared_table(double min_value,
                                               double max_value) const;
  std::shared_ptr<const BinTable> build_table(double min_value,
                                              double max_value) const;

  double log_min_;
  double log_max_;
  std::vector<std::uint64_t> counts_;
  // Immutable, shared by every histogram of this layout (copies included);
  // null for layouts binned by the formula alone.
  std::shared_ptr<const BinTable> table_;
  std::uint64_t total_ = 0;
  double observed_min_ = 0.0;
  double observed_max_ = 0.0;
};

// Exact empirical CDF over retained samples.
class EmpiricalCdf {
 public:
  void add(double v) { samples_.push_back(v); }
  void add_all(std::span<const double> vs);
  void merge(const EmpiricalCdf& other);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Fraction of samples <= x.
  double fraction_at_or_below(double x) const;
  // q in [0, 1].
  double quantile(double q) const;
  double min() const;
  double max() const;

  // Evenly spaced plot points (num points along the sample range).
  std::vector<std::pair<double, double>> cdf_points(std::size_t num) const;

  std::span<const double> sorted_samples() const;

 private:
  void ensure_sorted() const;
  double percentile_from_sorted(double q) const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace hpcos
