// Noise metrics from the paper's evaluation (§6.3).
//
//  * noise length  L_i = T_i - T_min            (per FWQ sample)
//  * max noise length = T_max - T_min           (Table 2, col 2)
//  * noise rate  = (1/n) * sum_i (T_i - T_min)/T_min      (Eq. 2, col 3)
//
// plus the analytic bulk-synchronous slowdown estimator of Eq. 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_time.h"
#include "noise/fwq.h"

namespace hpcos::noise {

struct NoiseStats {
  SimTime t_min;
  SimTime t_max;
  SimTime max_noise_length;  // t_max - t_min
  double noise_rate = 0.0;   // Eq. 2
  std::uint64_t samples = 0;
};

// Stats over FWQ traces, using the global minimum as T_min (how the paper
// aggregates multi-core / multi-node FWQ data).
NoiseStats compute_noise_stats(const std::vector<FwqTrace>& traces);

// Noise length series L_i = T_i - T_min for time-series plots (Figure 3).
std::vector<SimTime> noise_lengths(std::span<const SimTime> iteration_times);

// ---- Eq. 1: analytic delay bound for bulk-synchronous applications ----
//
//   delay = max_i ( (1 - (1 - S/I_i)^N) * L_i / S )
//
// with S the synchronization interval, N the number of threads, and group i
// having noise length L_i and occurrence interval I_i. The result is the
// expected fractional slowdown.
struct NoiseGroup {
  SimTime length;    // L_i
  SimTime interval;  // I_i
};

double bsp_noise_delay(std::span<const NoiseGroup> groups,
                       SimTime sync_interval, std::uint64_t num_threads);

// Probability that at least one of N threads is hit within one sync
// interval by a noise source of interval I: 1 - (1 - S/I)^N.
double hit_probability(SimTime sync_interval, SimTime noise_interval,
                       std::uint64_t num_threads);

}  // namespace hpcos::noise
