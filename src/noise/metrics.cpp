#include "noise/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpcos::noise {

NoiseStats compute_noise_stats(const std::vector<FwqTrace>& traces) {
  NoiseStats s;
  s.t_min = SimTime::max();
  s.t_max = SimTime::zero();
  for (const auto& trace : traces) {
    for (SimTime t : trace.iteration_times) {
      s.t_min = std::min(s.t_min, t);
      s.t_max = std::max(s.t_max, t);
    }
  }
  if (s.t_min == SimTime::max()) {
    return NoiseStats{};  // no samples
  }
  s.max_noise_length = s.t_max - s.t_min;
  const double tmin_ns = static_cast<double>(s.t_min.count_ns());
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& trace : traces) {
    for (SimTime t : trace.iteration_times) {
      if (tmin_ns > 0.0) {
        sum += static_cast<double>((t - s.t_min).count_ns()) / tmin_ns;
      }
      ++n;
    }
  }
  // T_min == 0 happens on legitimate traces (a zero-work FWQ quantum in
  // tests); Eq. 2 normalizes by T_min, so the rate is undefined there and
  // we report zero rather than dividing by zero or aborting.
  s.noise_rate = n > 0 && tmin_ns > 0.0 ? sum / static_cast<double>(n) : 0.0;
  s.samples = n;
  return s;
}

std::vector<SimTime> noise_lengths(std::span<const SimTime> iteration_times) {
  std::vector<SimTime> out;
  if (iteration_times.empty()) return out;
  const SimTime t_min =
      *std::min_element(iteration_times.begin(), iteration_times.end());
  out.reserve(iteration_times.size());
  for (SimTime t : iteration_times) out.push_back(t - t_min);
  return out;
}

double hit_probability(SimTime sync_interval, SimTime noise_interval,
                       std::uint64_t num_threads) {
  HPCOS_CHECK(noise_interval > SimTime::zero());
  const double ratio = std::min(1.0, sync_interval.ratio(noise_interval));
  // (1 - r)^N computed in log space to survive N ~ 7.6 million.
  if (ratio >= 1.0) return 1.0;
  const double log_miss =
      static_cast<double>(num_threads) * std::log1p(-ratio);
  return 1.0 - std::exp(log_miss);
}

double bsp_noise_delay(std::span<const NoiseGroup> groups,
                       SimTime sync_interval, std::uint64_t num_threads) {
  HPCOS_CHECK(sync_interval > SimTime::zero());
  double worst = 0.0;
  for (const auto& g : groups) {
    const double p = hit_probability(sync_interval, g.interval, num_threads);
    const double delay = p * g.length.ratio(sync_interval);
    worst = std::max(worst, delay);
  }
  return worst;
}

}  // namespace hpcos::noise
