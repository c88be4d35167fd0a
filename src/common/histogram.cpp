#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "common/check.h"

namespace hpcos {
namespace {

// Values this close (relative) to a bin edge take the log formula: there
// its result depends on the last bits of std::log. The formula's rounding
// moves an edge by a few ULPs of log(value): about 1e-14 for the layouts
// in the tree, over 100 times inside this band (DESIGN §6). Layouts with
// |log| > kMaxAbsLog, where those ULPs grow, get no table.
constexpr double kBelowEdge = 1.0 - 1e-12;
constexpr double kAboveEdge = 1.0 + 1e-12;
constexpr double kMaxAbsLog = 32.0;
// Layouts that would need more buckets bin by the formula alone.
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 16;

}  // namespace

// Bucket b holds the doubles whose bit pattern >> shift is first_key + b:
// the exponent plus the top mantissa bits, so a bucket is at most half a
// bin wide and spans at most one edge. first_bin[b] is the bin of the
// bucket's start (the one below, when the start is within 1e-12 above an
// edge), so a value in the bucket lies in first_bin[b] or the next bin.
struct LogHistogram::BinTable {
  double min_value;
  double max_value;
  int shift;
  std::uint64_t first_key;
  std::vector<std::uint32_t> first_bin;
  std::vector<double> edges;  // bin_lower(0..num_bins)
};

LogHistogram::LogHistogram(double min_value, double max_value,
                           std::size_t num_bins)
    : log_min_(std::log(min_value)),
      log_max_(std::log(max_value)),
      counts_(num_bins, 0) {
  if (!(min_value > 0.0) || !(max_value > min_value) || num_bins == 0) {
    throw std::invalid_argument("LogHistogram: bad range or bin count");
  }
  table_ = shared_table(min_value, max_value);
}

std::shared_ptr<const LogHistogram::BinTable> LogHistogram::shared_table(
    double min_value, double max_value) const {
  static std::mutex mu;
  static std::map<std::tuple<double, double, std::size_t>,
                  std::weak_ptr<const BinTable>>
      tables;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[{min_value, max_value, counts_.size()}];
  std::shared_ptr<const BinTable> table = slot.lock();
  if (table == nullptr) {
    table = build_table(min_value, max_value);
    slot = table;
  }
  return table;
}

std::shared_ptr<const LogHistogram::BinTable> LogHistogram::build_table(
    double min_value, double max_value) const {
  if (!(std::abs(log_min_) <= kMaxAbsLog && std::abs(log_max_) <= kMaxAbsLog)) {
    return nullptr;
  }
  const std::size_t n = counts_.size();
  // A bucket is at most 2^-m wide relative to its start; keep m mantissa
  // bits so that is at most half a bin.
  const double half_bin = std::expm1((log_max_ - log_min_) / n) / 2.0;
  int m = 0;
  while (m < 52 && std::ldexp(1.0, -m) > half_bin) ++m;
  const int shift = 52 - m;
  const std::uint64_t first = std::bit_cast<std::uint64_t>(min_value) >> shift;
  const std::uint64_t last = std::bit_cast<std::uint64_t>(max_value) >> shift;
  if (last - first >= kMaxBuckets) return nullptr;

  auto table = std::make_shared<BinTable>();
  table->min_value = min_value;
  table->max_value = max_value;
  table->shift = shift;
  table->first_key = first;
  table->edges.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) table->edges[i] = bin_lower(i);
  table->first_bin.resize(last - first + 1);
  std::size_t bin = 0;
  for (std::uint64_t key = first; key <= last; ++key) {
    const double start = std::bit_cast<double>(key << shift);
    while (bin + 1 < n && table->edges[bin + 1] * kAboveEdge <= start) ++bin;
    table->first_bin[key - first] = static_cast<std::uint32_t>(bin);
    // The sizing above keeps the bucket below the guard band of the edge
    // after next, so one comparison in bin_index() suffices.
    const double end = std::bit_cast<double>((key + 1) << shift);
    HPCOS_CHECK(bin + 2 > n || end <= table->edges[bin + 2] * kBelowEdge);
  }
  return table;
}

std::size_t LogHistogram::bin_index(double value) const {
  if (table_ != nullptr && value > table_->min_value &&
      value < table_->max_value) {
    const BinTable& t = *table_;
    const std::size_t bin =
        t.first_bin[(std::bit_cast<std::uint64_t>(value) >> t.shift) -
                    t.first_key];
    const double edge = t.edges[bin + 1];
    const bool above = value >= edge * kAboveEdge;
    // One well-predicted branch: only the guard band around `edge` fails.
    if (above || value < edge * kBelowEdge) return bin + (above ? 1 : 0);
  }
  return bin_index_by_log(value);
}

// The reference binning; the table must agree with it on every value.
std::size_t LogHistogram::bin_index_by_log(double value) const {
  if (std::isnan(value)) {
    throw std::invalid_argument("LogHistogram: NaN sample");
  }
  if (value <= 0.0) return 0;
  const double lv = std::log(value);
  if (lv <= log_min_) return 0;
  if (lv >= log_max_) return counts_.size() - 1;
  const double frac = (lv - log_min_) / (log_max_ - log_min_);
  const auto idx =
      static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  return std::min(idx, counts_.size() - 1);
}

void LogHistogram::add_n(double value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t bin = bin_index(value);  // throws before any update
  if (total_ == 0) {
    observed_min_ = value;
    observed_max_ = value;
  } else {
    observed_min_ = std::min(observed_min_, value);
    observed_max_ = std::max(observed_max_, value);
  }
  counts_[bin] += n;
  total_ += n;
}

void LogHistogram::add_each(std::span<const double> values,
                            std::uint64_t n) {
  if (values.empty() || n == 0) return;
  double lo = values[0];
  double hi = values[0];
  bool nan = false;
  for (const double v : values) {
    nan |= std::isnan(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (nan) throw std::invalid_argument("LogHistogram: NaN sample");
  for (const double v : values) counts_[bin_index(v)] += n;
  if (total_ == 0) {
    observed_min_ = lo;
    observed_max_ = hi;
  } else {
    observed_min_ = std::min(observed_min_, lo);
    observed_max_ = std::max(observed_max_, hi);
  }
  total_ += n * values.size();
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.counts_.size() != counts_.size() || other.log_min_ != log_min_ ||
      other.log_max_ != log_max_) {
    throw std::invalid_argument("LogHistogram::merge: incompatible layout");
  }
  if (other.total_ == 0) return;
  if (total_ == 0) {
    observed_min_ = other.observed_min_;
    observed_max_ = other.observed_max_;
  } else {
    observed_min_ = std::min(observed_min_, other.observed_min_);
    observed_max_ = std::max(observed_max_, other.observed_max_);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LogHistogram::bin_lower(std::size_t i) const {
  const double frac =
      static_cast<double>(i) / static_cast<double>(counts_.size());
  return std::exp(log_min_ + frac * (log_max_ - log_min_));
}

double LogHistogram::bin_upper(std::size_t i) const { return bin_lower(i + 1); }

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      return std::clamp(bin_upper(i), observed_min_, observed_max_);
    }
  }
  return observed_max_;
}

std::vector<std::pair<double, double>> LogHistogram::cdf_points() const {
  std::vector<std::pair<double, double>> out;
  if (total_ == 0) return out;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    cum += counts_[i];
    out.emplace_back(bin_upper(i),
                     static_cast<double>(cum) / static_cast<double>(total_));
  }
  return out;
}

LogHistogram duration_us_histogram() { return LogHistogram(1e-3, 1e7, 2315); }

}  // namespace hpcos
