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
#include <span>

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
  // The next out.size() lognormal(mu, sigma) draws in whole nanoseconds:
  // out[i] is SimTime::from_ns_saturating(lognormal(mu, sigma)) of the
  // i-th call, and the stream, cached Box-Muller half included, ends where
  // those calls leave it. Each pair's sin, cos and exp come from the
  // branch-free kernels below; a value whose truncation they leave in
  // doubt, and every draw outside their domain, is recomputed the way
  // lognormal() computes it (DESIGN §6 "Exact fast paths").
  void lognormal_ns(double mu, double sigma, std::span<SimTime> out);
  // Poisson with the given mean; exact (Knuth) for small means, normal
  // approximation above 64 to stay O(1).
  std::uint64_t poisson(double mean);
  // The same draw with its per-mean constant precomputed: a loop that draws
  // many counts of one mean takes poisson_param(mean) once and passes it to
  // every draw. Same result and same RNG calls as poisson(mean).
  std::uint64_t poisson(double mean, double param);
  // exp(-mean) below a mean of 64 (Knuth's limit), sqrt(mean) from 64 on
  // (the normal branch's stddev).
  static double poisson_param(double mean);

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

// lognormal_ns's kernels, exposed for the tests of their error bounds.
// Each maps an array elementwise, in a loop the compiler can vectorize;
// the output spans must be as long as the input.
//
// sin and cos of 2*pi*u for u in [0, 1). The angle is reduced exactly in
// u: 4u = k + r with k an integer and |r| <= 1/2, so 2*pi*u is k quarter
// turns plus (pi/2) r, and degree-15/16 Taylor polynomials in r give sin
// and cos of the remainder, which k's last two bits rotate.
void sincos_2pi(std::span<const double> u, std::span<double> sin_out,
                std::span<double> cos_out);
// exp(x) for |x| <= 44: Cody-Waite reduction x = k ln2 + r, |r| <= ln2/2,
// a degree-13 Taylor polynomial for exp(r), and 2^k through the exponent
// bits. Outside that range the result is meaningless.
void exp_kernel(std::span<const double> x, std::span<double> out);

}  // namespace hpcos
