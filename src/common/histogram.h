// The repo's one distribution type.
//
// The evaluation plots (Figure 4 in particular) are cumulative distribution
// functions of FWQ iteration lengths aggregated over tens of thousands of
// cores. LogHistogram keeps memory bounded while preserving the tail
// resolution those plots need; the campaign timeline, the span sampler and
// the Registry keep their distributions in it too, so every quantile in the
// repo has one definition (DESIGN §6).
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
  // add_n(v, n) for each v in values, in one call: a NaN anywhere throws
  // before any update, and the observed min, max and total are updated
  // once.
  void add_each(std::span<const double> values, std::uint64_t n);
  void merge(const LogHistogram& other);

  std::uint64_t total_count() const { return total_; }
  std::size_t num_bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  double bin_lower(std::size_t i) const;
  double bin_upper(std::size_t i) const;

  // q in [0, 1]; 0 when empty. The upper edge of the bin that holds the
  // ceil(q * count)-th sample, clamped to [observed_min, observed_max]: an
  // upper bound on that sample within one bin, and exact for one sample.
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

// The layout of every microsecond-duration distribution outside Fig. 4's
// CDF (the campaign timeline's per-source overheads, the span sampler's
// per-label root durations): [1e-3, 1e7] us with adjacent bin edges at most
// 1 % apart, ceil(ln(1e10) / ln(1.01)) = 2,315 bins.
LogHistogram duration_us_histogram();

}  // namespace hpcos
