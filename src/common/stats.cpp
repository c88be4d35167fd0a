#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace hpcos {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> samples, double p) {
  std::vector<double> copy(samples.begin(), samples.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, p);
}

SampleSummary summarize(std::span<const double> samples) {
  SampleSummary s;
  if (samples.empty()) return s;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  OnlineStats os;
  for (double v : sorted) os.add(v);
  s.count = os.count();
  s.mean = os.mean();
  s.stddev = os.stddev();
  s.min = sorted.front();
  s.p50 = percentile_sorted(sorted, 50.0);
  s.p99 = percentile_sorted(sorted, 99.0);
  s.p999 = percentile_sorted(sorted, 99.9);
  s.max = sorted.back();
  return s;
}

}  // namespace hpcos
