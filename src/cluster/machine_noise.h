// Machine-scale noise sampling in O(sources) per barrier window.
//
// A bulk-synchronous iteration across the whole machine waits for its
// worst-hit thread (Eq. 1). Enumerating every thread is infeasible at
// 7.6 M hardware threads; instead, per source, we draw the *number* of
// hits across the whole population within the window (Poisson) and then
// one draw from the max-of-k duration distribution (inverse-CDF of
// U^(1/k)). Straggler sources gate on a binomially-sampled subset of
// nodes, so a 24-rack job and the full machine see different populations —
// which is exactly the Figure-4b full-scale effect.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "noise/analytic.h"

namespace hpcos::cluster {

// One sampled barrier wait, with the noise source that caused it. The
// attribution layer (obs/attrib) uses the tag to explain stragglers; the
// delay itself is identical to what sample_global_delay returns (same
// draws in the same order, so tagging never perturbs a seeded run).
struct GlobalDelaySample {
  SimTime delay;        // what the barrier waits (worst event + jitter)
  SimTime worst_event;  // duration of the dominant discrete hit (zero if
                        // only the jitter floor contributed)
  // Name/kind of the dominant source; "jitter-floor" when no discrete
  // source hit within the window but the floor stretched it; "" when the
  // delay is exactly zero.
  std::string source;
  noise::SourceKind kind = noise::SourceKind::kHardware;
  std::uint64_t hits = 0;  // discrete hits across all sources this window
};

class MachineNoiseSampler {
 public:
  MachineNoiseSampler(const noise::AnalyticNoiseProfile& profile,
                      std::int64_t nodes, int app_threads_per_node,
                      RngStream rng);

  // Max extra delay any thread suffers during a `window` of busy time; a
  // global barrier at the end of the window waits exactly this long.
  SimTime sample_global_delay(SimTime window);

  // Same draw sequence as sample_global_delay, plus attribution of the
  // dominant contributor.
  GlobalDelaySample sample_global_delay_attributed(SimTime window);

  std::size_t active_source_count() const { return sources_.size(); }

 private:
  struct ActiveSource {
    noise::NoiseSourceSpec spec;
    // Expected arrivals per nanosecond of window across the machine.
    double arrivals_per_ns = 0.0;
    noise::DurationDist::MaxConstants max_constants;
    // The Poisson mean of window_ and its RngStream::poisson_param.
    double mean = 0.0;
    double poisson_param = 0.0;
  };

  std::vector<ActiveSource> sources_;
  double jitter_worst_fraction_ = 0.0;  // max-of-N jitter floor
  // The window the sources' Poisson means are for. A BSP run asks for the
  // same window every iteration after the first.
  std::optional<SimTime> window_;
  RngStream rng_;
};

}  // namespace hpcos::cluster
