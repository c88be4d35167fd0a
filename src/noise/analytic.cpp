#include "noise/analytic.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpcos::noise {

SimTime DurationDist::sample(RngStream& rng) const {
  return sample(rng, log_median());
}

SimTime DurationDist::sample(RngStream& rng, double log_median) const {
  SimTime t;
  sample_n(rng, log_median, std::span(&t, 1));
  return t;
}

void DurationDist::sample_n(RngStream& rng, double log_median,
                            std::span<SimTime> out) const {
  if (sigma == 0.0) {
    std::fill(out.begin(), out.end(), std::clamp(median, min, max));
    return;
  }
  rng.lognormal_ns(log_median, sigma, out);
  for (SimTime& t : out) t = std::clamp(t, min, max);
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
  return std::clamp(SimTime::from_ns_saturating(v), min, max);
}

SimTime DurationDist::sample_max(std::uint64_t k, RngStream& rng) const {
  return sample_max(k, rng, MaxConstants{.log_median = log_median()});
}

SimTime DurationDist::sample_max(std::uint64_t k, RngStream& rng,
                                 const MaxConstants& c) const {
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
    const double v = std::exp(rng.max_normal(k, c.log_median, sigma));
    const SimTime t = SimTime::from_ns_saturating(v);
    return std::max(SimTime::zero(), std::clamp(t, min, max));
  }
  // max of k iid draws: F_max^{-1}(u) = F^{-1}(u^{1/k}). A constant's
  // quantile never reads u, but the uniform is still consumed.
  const double u = rng.uniform();
  if (sigma == 0.0) return std::clamp(median, min, max);
  return max_quantile(u, k, c.clamp_log_q);
}

SimTime DurationDist::max_quantile(double u, std::uint64_t k,
                                   double clamp_log_q) const {
  const double l =
      std::log(std::clamp(u, 1e-12, 1.0 - 1e-12)) / static_cast<double>(k);
  if (l >= clamp_log_q) return max;
  return quantile(std::exp(l));
}

DurationDist::MaxConstants DurationDist::max_constants() const {
  // The smallest l = log(u) / k whose draw provably returns `max`. The
  // quantile computes q = exp(l), clamps it to [1e-12, 1 - 1e-12], takes
  // z = inverse_normal_cdf(q) and v = median * exp(sigma * z), and returns
  // max exactly when v >= max (max is a whole number of ns, so truncating
  // v keeps it there). The threshold is built backwards from that, with
  // margins, and nowhere assumes that the floating-point Acklam is
  // monotone (next to its branch points it is not, by up to 7.5e-13 in z):
  //  1. v >= max once sigma * z >= ell + 1e-9 (1 + |ell|), with ell =
  //     log(max / median). The margin is six orders of magnitude above the
  //     rounding of log, exp, the division and the products (glibc's exp
  //     and log are within one ULP), as in RngStream::max_normal.
  //  2. inverse_normal_cdf is within 1.15e-9 of the exact Phi^-1, relative,
  //     on both branches (Acklam's bound; DurationDist.AcklamWithinItsBound
  //     checks it). So step 1 holds for every q whose exact Phi^-1(q) is at
  //     least z_thr, step 1's z over 1 -/+ 1.15e-9.
  //  3. That holds for every q >= Phi(z_thr). The clamp at 1 - 1e-12 caps
  //     Phi^-1 at 7.03, so a z_thr above 7 proves nothing; below -7.1 every
  //     q clears it, since the clamp at 1e-12 only raises q.
  //  4. l_thr = log(Phi(z_thr)), through erfc (log1p of the upper tail for
  //     z_thr >= 0), plus 16 ULPs of 1.0 scaled by 1 + |l_thr|. Near l = 0,
  //     q = exp(l) moves in steps of 1.1e-16, so a relative margin alone
  //     would be too small once |l| is below ~1e-7 (k ~ 1e6); the margin
  //     covers erfc's few-ULP error, log's and exp's rounding, and the
  //     rounding of erfc's argument.
  MaxConstants c{.log_median = log_median()};
  const std::int64_t max_ns = max.count_ns();
  if (!(sigma > 0.0) || min > max || max_ns <= 0 ||
      max_ns > (std::int64_t{1} << 53)) {
    return c;
  }
  const double ell = std::log(static_cast<double>(max_ns) /
                              static_cast<double>(median.count_ns()));
  const double z_min = (ell + 1e-9 * (1.0 + std::abs(ell))) / sigma;
  constexpr double kAcklamError = 1.15e-9;
  const double z_thr =
      z_min / (z_min >= 0.0 ? 1.0 - kAcklamError : 1.0 + kAcklamError);
  if (!(z_thr <= 7.0)) return c;
  if (z_thr < -7.1) {
    c.clamp_log_q = -std::numeric_limits<double>::infinity();
    return c;
  }
  const double l =
      z_thr >= 0.0 ? std::log1p(-0.5 * std::erfc(z_thr * M_SQRT1_2))
                   : std::log(0.5 * std::erfc(-z_thr * M_SQRT1_2));
  c.clamp_log_q =
      l + 16.0 * std::numeric_limits<double>::epsilon() * (1.0 + std::abs(l));
  return c;
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
  for (std::size_t i = 0; i < profile.sources.size(); ++i) {
    const NoiseSourceSpec& s = profile.sources[i];
    HPCOS_CHECK_MSG(s.mean_interval > SimTime::zero(),
                    "noise source needs a positive interval");
    if (s.node_fraction >= 1.0 || rng_.bernoulli(s.node_fraction)) {
      active_.push_back(i);
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
