#include "common/rng.h"

#include <algorithm>
#include <bit>
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

// Adding and subtracting 1.5 * 2^52 rounds a double of magnitude below
// 2^51 to the nearest integer, which the low bits of the sum then hold.
constexpr double kRoundShift = 0x1.8p52;

// (pi/2)^n / n! with alternating signs, rounded to the nearest double:
// sin((pi/2) r) = r * sum kSin[i] r^2i, cos((pi/2) r) = sum kCos[i] r^2i.
// At |r| <= 1/2 the first omitted terms are below 5e-17 and 3e-18.
constexpr double kSin[] = {
    0x1.921fb54442d18p+0,  -0x1.4abbce625be53p-1, 0x1.466bc6775aae2p-4,
    -0x1.32d2cce62bd86p-8, 0x1.50783487ee782p-13, -0x1.e3074fde8871fp-19,
    0x1.e8f434d018d63p-25, -0x1.6fadb9f155744p-31};
constexpr double kCos[] = {
    0x1.0000000000000p+0,  -0x1.3bd3cc9be45dep+0, 0x1.03c1f081b5ac4p-2,
    -0x1.55d3c7e3cbffap-6, 0x1.e1f506891babbp-11, -0x1.a6d1f2a204a8cp-16,
    0x1.f9d38a3763cc3p-22, -0x1.b6e24f44b128fp-28, 0x1.20c62c2f2d7f5p-34};
// 1 / n! for n = 13 down to 0; at |r| <= 0.35 the first omitted term is
// below 5e-18.
constexpr double kExp[] = {
    0x1.6124613a86d09p-33, 0x1.1eed8eff8d898p-29, 0x1.ae64567f544e4p-26,
    0x1.27e4fb7789f5cp-22, 0x1.71de3a556c734p-19, 0x1.a01a01a01a01ap-16,
    0x1.a01a01a01a01ap-13, 0x1.6c16c16c16c17p-10, 0x1.1111111111111p-7,
    0x1.5555555555555p-5,  0x1.5555555555555p-3,  0x1.0000000000000p-1,
    0x1.0000000000000p+0,  0x1.0000000000000p+0};
constexpr double kLog2e = 0x1.71547652b82fep+0;
// ln 2 split so that k * kLn2Hi is exact for |k| < 2^20 (fdlibm's split).
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// lognormal_ns's domain and margin (DESIGN §6 "Exact fast paths"). On the
// domain, 0 < sigma <= 3 and |x'| <= 44, the kernels' lognormal v' is
// within 4.9e-14 of glibc's v, relative. The bound adds up glibc's sin,
// cos and exp (one ULP each), the angle 2.0 * M_PI * u2 (within 6.9e-16
// of 2 pi u2), the kernels' own errors (2.5e-16 each, which
// Rng.SincosKernelWithinItsBound and Rng.ExpKernelWithinItsBound check),
// sigma * r <= 25.8 (u1 >= 2^-53) and the rounding of |x| < 64. So a v'
// whose truncation is the same at v'(1 - kMargin) and v'(1 + kMargin)
// truncates as v does.
constexpr double kBatchMaxSigma = 3.0;
constexpr double kBatchMaxAbsX = 44.0;
constexpr double kMargin = 1e-9;

// The truncation of v', the kernels' exp(x'), when it is certain: x' in
// the domain, v'(1 + kMargin) below 2^63, and both ends of the margin
// truncating alike.
bool certain_ns(double x, double v, SimTime& t) {
  if (!(std::abs(x) <= kBatchMaxAbsX)) return false;
  const double hi = v * (1.0 + kMargin);
  if (!(hi < 0x1p63)) return false;
  const auto ns = static_cast<std::int64_t>(v * (1.0 - kMargin));
  t = SimTime::ns(ns);
  return ns == static_cast<std::int64_t>(hi);
}

}  // namespace

void sincos_2pi(std::span<const double> u, std::span<double> sin_out,
                std::span<double> cos_out) {
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double t = 4.0 * u[i];  // exact
    const double shifted = t + kRoundShift;
    const double r = t - (shifted - kRoundShift);  // exact, |r| <= 1/2
    const double r2 = r * r;
    double s = kSin[7];
    for (int j = 6; j >= 0; --j) s = s * r2 + kSin[j];
    s *= r;
    double c = kCos[8];
    for (int j = 7; j >= 0; --j) c = c * r2 + kCos[j];
    // 2 pi u = k pi/2 + (pi/2) r. An odd k swaps sin and cos; sin is
    // negative for k mod 4 in {2, 3}, cos for k mod 4 in {1, 2}.
    const std::uint64_t k = std::bit_cast<std::uint64_t>(shifted);
    const std::uint64_t swap = 0 - (k & 1);
    const std::uint64_t sb = std::bit_cast<std::uint64_t>(s);
    const std::uint64_t cb = std::bit_cast<std::uint64_t>(c);
    sin_out[i] = std::bit_cast<double>(((sb & ~swap) | (cb & swap)) ^
                                       ((k & 2) << 62));
    cos_out[i] = std::bit_cast<double>(((cb & ~swap) | (sb & swap)) ^
                                       (((k + 1) & 2) << 62));
  }
}

void exp_kernel(std::span<const double> x, std::span<double> out) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double shifted = x[i] * kLog2e + kRoundShift;
    const double k = shifted - kRoundShift;  // the integer nearest x / ln 2
    const double r = (x[i] - k * kLn2Hi) - k * kLn2Lo;
    double p = kExp[0];
    for (int j = 1; j < 14; ++j) p = p * r + kExp[j];
    // 2^k: k + 1023 in the exponent field (k sits in shifted's low bits).
    const std::uint64_t biased = std::bit_cast<std::uint64_t>(shifted) -
                                 std::bit_cast<std::uint64_t>(kRoundShift) +
                                 1023;
    out[i] = p * std::bit_cast<double>(biased << 52);
  }
}

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

void RngStream::lognormal_ns(double mu, double sigma,
                             std::span<SimTime> out) {
  const auto exact = [&] {
    return SimTime::from_ns_saturating(lognormal(mu, sigma));
  };
  std::size_t i = 0;
  const std::size_t n = out.size();
  // A cached half is the sine half of a pair drawn before: exact path.
  if (n > 0 && has_cached_normal_) out[i++] = exact();
  const bool in_domain = sigma > 0.0 && sigma <= kBatchMaxSigma;
  // Blocks of pairs: the uniforms in stream order (u1 with its rejection
  // loop, then u2), glibc's log and sqrt for r, then the kernels, in loops
  // of their own so that the compiler can vectorize them.
  constexpr std::size_t kBlock = 64;
  double u1[kBlock];
  double u2[kBlock];
  double r[kBlock];
  double sine[kBlock];
  double cosine[kBlock];
  double xc[kBlock];
  double xs[kBlock];
  double vc[kBlock];
  double vs[kBlock];
  while (in_domain && n - i >= 2) {
    const std::size_t pairs = std::min(kBlock, (n - i) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      u1[p] = open_uniform(*this);
      u2[p] = uniform();
    }
    for (std::size_t p = 0; p < pairs; ++p) {
      r[p] = std::sqrt(-2.0 * std::log(u1[p]));  // box_muller's r
    }
    sincos_2pi(std::span(u2, pairs), std::span(sine, pairs),
               std::span(cosine, pairs));
    // box_muller's expressions: the cosine half is returned, the sine
    // half is the one normal() caches and scales on its next call.
    for (std::size_t p = 0; p < pairs; ++p) {
      xc[p] = mu + sigma * r[p] * cosine[p];
      xs[p] = mu + sigma * (r[p] * sine[p]);
    }
    exp_kernel(std::span(xc, pairs), std::span(vc, pairs));
    exp_kernel(std::span(xs, pairs), std::span(vs, pairs));
    for (std::size_t p = 0; p < pairs; ++p) {
      SimTime a;
      SimTime b;
      if (!certain_ns(xc[p], vc[p], a) || !certain_ns(xs[p], vs[p], b)) {
        double s = 0.0;
        a = SimTime::from_ns_saturating(
            std::exp(box_muller(u1[p], u2[p], mu, sigma, s)));
        b = SimTime::from_ns_saturating(std::exp(mu + sigma * s));
      }
      out[i++] = a;
      out[i++] = b;
    }
  }
  // An odd tail draws its pair through normal(), which caches the sine
  // half; outside the domain every draw takes this path.
  for (; i < n; ++i) out[i] = exact();
}

std::uint64_t RngStream::poisson(double mean) {
  return poisson(mean, poisson_param(mean));
}

std::uint64_t RngStream::poisson(double mean, double param) {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's method; param is exp(-mean).
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > param);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the large
  // arrival counts used by the cluster-scale noise sampler. param is
  // sqrt(mean).
  const double v = normal(mean, param);
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

double RngStream::poisson_param(double mean) {
  return mean < 64.0 ? std::exp(-mean) : std::sqrt(mean);
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
