#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace hpcos {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One Box-Muller pair: returns the cosine half as a normal(mean, stddev)
// draw and stores the unscaled sine half, the one normal() caches, in
// `sine`. normal() and max_normal() both compute pairs here, so a draw's
// bits do not depend on which of them made it.
double box_muller(double u1, double u2, double mean, double stddev,
                  double& sine) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  sine = r * std::sin(theta);
  return mean + stddev * r * std::cos(theta);
}

// Uniform in (0, 1): the u1 of a Box-Muller pair, which log() needs
// nonzero.
double open_uniform(RngStream& rng) {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return u;
}

}  // namespace

RngStream::RngStream(Seed seed, std::uint64_t stream)
    : seed_(seed), stream_(stream) {
  // Mix seed and stream through splitmix64 so that nearby (seed, stream)
  // pairs yield uncorrelated xoshiro states.
  std::uint64_t x = seed.value ^ (stream * 0xD1B54A32D192ED03ull + 1);
  for (auto& s : state_) s = splitmix64(x);
  // xoshiro must not be seeded with the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

RngStream RngStream::split(std::uint64_t child_index) const {
  // Children are derived from the parent's identity, not its current state,
  // so splitting is insensitive to how many numbers the parent has drawn.
  return RngStream(Seed{seed_.value ^ (stream_ * 0xA24BAED4963EE407ull)},
                   child_index + 0x9FB21C651E98DF25ull);
}

std::uint64_t RngStream::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double RngStream::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t RngStream::uniform_index(std::uint64_t n) {
  // Lemire's multiply-shift rejection method: unbiased and fast.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool RngStream::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double RngStream::exponential(double mean) {
  // Inverse CDF; 1 - uniform() is in (0, 1] so the log argument is safe.
  return -mean * std::log1p(-uniform());
}

double RngStream::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  const double u1 = open_uniform(*this);
  const double u2 = uniform();
  has_cached_normal_ = true;
  return box_muller(u1, u2, mean, stddev, cached_normal_);
}

double RngStream::max_normal(std::uint64_t k, double mean, double stddev) {
  HPCOS_CHECK(k > 0 && stddev >= 0.0);
  double best = -std::numeric_limits<double>::infinity();
  // A pair with u1 > skip_u1 cannot reach `best`; uniform() < 1, so the
  // initial bound skips nothing. Both halves of a pair are
  // mean + stddev * r * (cos or sin), at most mean + stddev * r, and
  // r = sqrt(-2 log u1) < d exactly when u1 > exp(-d^2 / 2). The bound
  // uses d = (best - mean) / stddev * (1 - 1e-9) and scales exp by
  // (1 + 1e-9). Those margins are five orders of magnitude above the
  // rounding of log, sqrt, exp and the products (under 1e-14 relative,
  // the rounded d^2 inside exp included), so a skipped half is below best
  // in exact arithmetic, and `mean +` rounds it monotonically to at most
  // best, which is itself a double.
  double skip_u1 = 1.0;
  const auto raise = [&](double v) {
    if (v <= best) return;
    best = v;
    if (best > mean) {  // then stddev > 0
      const double d = (best - mean) / stddev * (1.0 - 1e-9);
      skip_u1 = std::exp(-0.5 * d * d) * (1.0 + 1e-9);
    }
  };
  if (has_cached_normal_) {
    raise(normal(mean, stddev));
    --k;
  }
  for (; k >= 2; k -= 2) {
    const double u1 = open_uniform(*this);
    const double u2 = uniform();
    if (u1 > skip_u1) continue;
    double sine = 0.0;
    const double cosine = box_muller(u1, u2, mean, stddev, sine);
    raise(std::max(cosine, mean + stddev * sine));
  }
  if (k == 0) return best;
  // The last pair leaves its sine half cached, so it is computed in full.
  return std::max(best, normal(mean, stddev));
}

double RngStream::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t RngStream::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's method.
    const double limit = std::exp(-mean);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the large
  // arrival counts used by the cluster-scale noise sampler.
  const double v = normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

SimTime RngStream::exponential_time(SimTime mean) {
  return SimTime::ns(static_cast<std::int64_t>(
      exponential(static_cast<double>(mean.count_ns()))));
}

SimTime RngStream::uniform_time(SimTime lo, SimTime hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>((hi - lo).count_ns());
  return lo + SimTime::ns(static_cast<std::int64_t>(uniform_index(span)));
}

}  // namespace hpcos
