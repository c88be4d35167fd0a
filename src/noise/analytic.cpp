#include "noise/analytic.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpcos::noise {

SimTime DurationDist::sample(RngStream& rng) const {
  return sample(rng, log_median());
}

SimTime DurationDist::sample(RngStream& rng, double log_median) const {
  if (sigma == 0.0) return std::clamp(median, min, max);
  const double v = rng.lognormal(log_median, sigma);
  const auto t = SimTime::ns(static_cast<std::int64_t>(v));
  return std::clamp(t, min, max);
}

double DurationDist::log_median() const {
  return std::log(static_cast<double>(median.count_ns()));
}

SimTime DurationDist::mean() const {
  if (sigma == 0.0) return median;
  // E[lognormal] = median * exp(sigma^2 / 2).
  return median.scaled(std::exp(sigma * sigma / 2.0));
}

double inverse_normal_cdf(double p) {
  // Acklam's rational approximation.
  HPCOS_CHECK(p > 0.0 && p < 1.0);
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

SimTime DurationDist::quantile(double q) const {
  if (sigma == 0.0) return std::clamp(median, min, max);
  const double qq = std::clamp(q, 1e-12, 1.0 - 1e-12);
  const double z = inverse_normal_cdf(qq);
  const double v =
      static_cast<double>(median.count_ns()) * std::exp(sigma * z);
  return std::clamp(SimTime::ns(static_cast<std::int64_t>(v)), min, max);
}

SimTime DurationDist::sample_max(std::uint64_t k, RngStream& rng) const {
  HPCOS_CHECK(sigma >= 0.0);
  if (k == 0) return SimTime::zero();
  if (k <= 64) {
    // The max of k draws, floored at zero. exp, the truncation to whole
    // nanoseconds, the clamp and the floor are all monotone, so they can
    // be applied once, to the largest normal. This relies on glibc's exp
    // not inverting two draws: an inversion needs two draws within one ULP
    // of each other, and the truncation would still merge them unless they
    // straddle a whole nanosecond.
    if (sigma == 0.0) {
      return std::max(SimTime::zero(), std::clamp(median, min, max));
    }
    const double v = std::exp(rng.max_normal(k, log_median(), sigma));
    const auto t = SimTime::ns(static_cast<std::int64_t>(v));
    return std::max(SimTime::zero(), std::clamp(t, min, max));
  }
  // max of k iid draws: F_max^{-1}(u) = F^{-1}(u^{1/k}).
  const double u = std::clamp(rng.uniform(), 1e-12, 1.0 - 1e-12);
  const double q = std::exp(std::log(u) / static_cast<double>(k));
  return quantile(q);
}

sim::TraceCategory trace_category(SourceKind k) {
  switch (k) {
    case SourceKind::kDaemon:
    case SourceKind::kSar:
      return sim::TraceCategory::kDaemon;
    case SourceKind::kKworker:
      return sim::TraceCategory::kKworker;
    case SourceKind::kBlkMq:
      return sim::TraceCategory::kBlkMq;
    case SourceKind::kPmuRead:
      return sim::TraceCategory::kPmuRead;
    case SourceKind::kTlbiStorm:
      return sim::TraceCategory::kTlbShootdown;
    case SourceKind::kDeviceIrq:
      return sim::TraceCategory::kIrq;
    case SourceKind::kResidualTick:
      return sim::TraceCategory::kTimerTick;
    case SourceKind::kHardware:
      return sim::TraceCategory::kUser;
  }
  return sim::TraceCategory::kUser;
}

AnalyticNodeSampler::AnalyticNodeSampler(const AnalyticNoiseProfile& profile,
                                         int app_cores, RngStream rng)
    : base_jitter_mean_(profile.base_jitter_mean),
      base_jitter_sd_(profile.base_jitter_sd),
      rng_(rng) {
  HPCOS_CHECK(app_cores > 0);
  for (const auto& s : profile.sources) {
    HPCOS_CHECK_MSG(s.mean_interval > SimTime::zero(),
                    "noise source needs a positive interval");
    if (s.node_fraction >= 1.0 || rng_.bernoulli(s.node_fraction)) {
      active_.push_back(s);
    }
  }
}

SimTime AnalyticNodeSampler::sample_floor_iteration(SimTime quantum) {
  double t_ns = static_cast<double>(quantum.count_ns());
  if (base_jitter_sd_ > 0.0 || base_jitter_mean_ > 0.0) {
    const double j =
        std::max(0.0, rng_.normal(base_jitter_mean_, base_jitter_sd_));
    t_ns *= 1.0 + j;
  }
  return SimTime::ns(static_cast<std::int64_t>(t_ns));
}

}  // namespace hpcos::noise
