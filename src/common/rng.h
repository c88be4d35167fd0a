// Deterministic, splittable random number generation.
//
// Reproducibility is a hard requirement for the substrate: every experiment
// must produce identical results for identical seeds regardless of how the
// host schedules worker threads. We therefore avoid std::mt19937 shared
// streams and instead give every simulated entity (node, noise source,
// workload rank, ...) its own counter-derived stream:
//
//   RngStream rng(Seed{experiment_seed}, /*stream=*/node_id * K + source_id);
//
// The generator is xoshiro256** (public domain, Blackman & Vigna) seeded via
// splitmix64, which is the recommended seeding procedure for the xoshiro
// family and guarantees well-mixed distinct streams even for adjacent
// (seed, stream) pairs.
#pragma once

#include <array>
#include <cstdint>

#include "common/sim_time.h"

namespace hpcos {

// A root seed for an experiment. Wrapping it in a struct makes call sites
// explicit about which integer is the seed and which is the stream index.
struct Seed {
  std::uint64_t value = 0x9E3779B97F4A7C15ull;
};

class RngStream {
 public:
  RngStream() : RngStream(Seed{}, 0) {}
  RngStream(Seed seed, std::uint64_t stream);

  // Derive a child stream deterministically; used to hand sub-streams to
  // sub-entities without coordinating a global stream counter.
  RngStream split(std::uint64_t child_index) const;

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  bool bernoulli(double p);
  // Exponential with the given mean (not rate).
  double exponential(double mean);
  // Standard normal via Box-Muller (cached pair).
  double normal(double mean, double stddev);
  // The largest of the next k normal(mean, stddev) draws (k > 0,
  // stddev >= 0): the same double as a max over k normal() calls, and the
  // stream, cached Box-Muller half included, ends where those calls would
  // leave it. It draws every pair's uniforms but skips the log, sqrt and
  // sincos of a pair whose u1 proves neither half can reach the maximum.
  double max_normal(std::uint64_t k, double mean, double stddev);
  // Lognormal parameterized by the mean/stddev of the *underlying* normal.
  double lognormal(double mu, double sigma);
  // Poisson with the given mean; exact (Knuth) for small means, normal
  // approximation above 64 to stay O(1).
  std::uint64_t poisson(double mean);

  // Duration helpers used throughout the noise models.
  SimTime exponential_time(SimTime mean);
  SimTime uniform_time(SimTime lo, SimTime hi);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  Seed seed_{};
  std::uint64_t stream_ = 0;
};

}  // namespace hpcos
