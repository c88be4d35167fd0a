#include "cluster/machine_noise.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hpcos::cluster {

MachineNoiseSampler::MachineNoiseSampler(
    const noise::AnalyticNoiseProfile& profile, std::int64_t nodes,
    int app_threads_per_node, RngStream rng)
    : rng_(rng) {
  HPCOS_CHECK(nodes >= 1 && app_threads_per_node >= 1);
  const double total_threads =
      static_cast<double>(nodes) * app_threads_per_node;

  std::uint64_t src_idx = 0;
  for (const auto& s : profile.sources) {
    RngStream gate = rng_.split(src_idx++);
    // Straggler gating: how many nodes exhibit this source at all.
    double active_nodes = static_cast<double>(nodes);
    if (s.node_fraction < 1.0) {
      // Binomial(nodes, f); Poisson approximation is exact enough for the
      // tiny fractions used (1e-4 of 158k nodes).
      active_nodes = static_cast<double>(
          gate.poisson(static_cast<double>(nodes) * s.node_fraction));
      if (active_nodes == 0.0) continue;
    }

    ActiveSource as{.spec = s,
                    .max_constants = s.duration.max_constants()};
    const auto interval_ns =
        static_cast<double>(s.mean_interval.count_ns());
    switch (s.scope) {
      case noise::SourceScope::kPerCore:
        // Independent process per thread.
        as.arrivals_per_ns =
            active_nodes * app_threads_per_node / interval_ns;
        break;
      case noise::SourceScope::kPerNodeRandomCore:
      case noise::SourceScope::kAllCores:
        // One process per node. (kAllCores delays every thread of the
        // node at once; for the machine-wide max the worst single
        // occurrence still dominates.)
        as.arrivals_per_ns = active_nodes / interval_ns;
        break;
    }

    sources_.push_back(std::move(as));
  }

  // Hardware jitter floor: the slowest of N threads sits ~sqrt(2 ln N)
  // standard deviations out.
  if (profile.base_jitter_sd > 0.0 || profile.base_jitter_mean > 0.0) {
    const double z = std::sqrt(2.0 * std::log(std::max(2.0, total_threads)));
    jitter_worst_fraction_ =
        std::max(0.0, profile.base_jitter_mean + z * profile.base_jitter_sd);
  }
}

SimTime MachineNoiseSampler::sample_global_delay(SimTime window) {
  return sample_global_delay_attributed(window).delay;
}

GlobalDelaySample MachineNoiseSampler::sample_global_delay_attributed(
    SimTime window) {
  GlobalDelaySample out;
  SimTime worst = SimTime::zero();
  const ActiveSource* dominant = nullptr;
  if (window_ != window) {
    window_ = window;
    const auto window_ns = static_cast<double>(window.count_ns());
    for (auto& s : sources_) {
      s.mean = s.arrivals_per_ns * window_ns;
      s.poisson_param = RngStream::poisson_param(s.mean);
    }
  }
  for (auto& s : sources_) {
    const std::uint64_t k = rng_.poisson(s.mean, s.poisson_param);
    if (k == 0) continue;
    out.hits += k;
    const SimTime event = s.spec.duration.sample_max(k, rng_, s.max_constants);
    if (event > worst) {
      worst = event;
      dominant = &s;
    }
  }
  out.worst_event = worst;
  out.delay = worst + window.scaled(jitter_worst_fraction_);
  if (dominant != nullptr) {
    out.source = dominant->spec.name;
    out.kind = dominant->spec.kind;
  } else if (out.delay > SimTime::zero()) {
    out.source = "jitter-floor";
    out.kind = noise::SourceKind::kHardware;
  }
  return out;
}

}  // namespace hpcos::cluster
