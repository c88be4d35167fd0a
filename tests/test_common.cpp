// Unit tests: common utilities (SimTime, RNG, stats, histograms, tables,
// parallel_for).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/check.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/ring_fifo.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/table.h"
#include "obs/prof/counters.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

std::uint64_t host_count(const char* name) {
  return obs::prof::host_counter_snapshot().value(name);
}

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::us(1).count_ns(), 1000);
  EXPECT_EQ(SimTime::ms(1).count_ns(), 1'000'000);
  EXPECT_EQ(SimTime::sec(1).count_ns(), 1'000'000'000);
  EXPECT_EQ(SimTime::from_ms(6.5).count_ns(), 6'500'000);
  EXPECT_EQ(SimTime::from_us(0.5).count_ns(), 500);
  EXPECT_EQ(1_ms, SimTime::us(1000));
}

TEST(SimTime, Arithmetic) {
  const SimTime a = 5_us;
  const SimTime b = 3_us;
  EXPECT_EQ((a + b).count_ns(), 8000);
  EXPECT_EQ((a - b).count_ns(), 2000);
  EXPECT_EQ((a * 3).count_ns(), 15000);
  EXPECT_EQ((a / 5).count_ns(), 1000);
  EXPECT_DOUBLE_EQ(a.ratio(b), 5.0 / 3.0);
  EXPECT_EQ(a.scaled(0.5).count_ns(), 2500);
  EXPECT_LT(b, a);
  EXPECT_TRUE((a - a).is_zero());
  EXPECT_TRUE((b - a).is_negative());
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::ns(12).to_string(), "12ns");
  EXPECT_EQ(SimTime::us(3).to_string(), "3us");
  EXPECT_EQ(SimTime::from_ms(6.5).to_string(), "6.5ms");
  EXPECT_EQ(SimTime::sec(2).to_string(), "2s");
}

TEST(SimTime, FromNsSaturatingTruncatesAndSaturates) {
  EXPECT_EQ(SimTime::from_ns_saturating(1.9), SimTime::ns(1));
  EXPECT_EQ(SimTime::from_ns_saturating(-1.9), SimTime::ns(-1));
  EXPECT_EQ(SimTime::from_ns_saturating(0x1p62),
            SimTime::ns(std::int64_t{1} << 62));
  // The largest double below 2^63 still converts exactly.
  EXPECT_EQ(SimTime::from_ns_saturating(std::nextafter(0x1p63, 0.0)),
            SimTime::ns(std::numeric_limits<std::int64_t>::max() - 1023));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {0x1p63, 1e300, inf}) {
    EXPECT_EQ(SimTime::from_ns_saturating(v), SimTime::max()) << v;
  }
  const SimTime lowest = SimTime::ns(std::numeric_limits<std::int64_t>::min());
  for (const double v : {-0x1p63, -1e300, -inf}) {
    EXPECT_EQ(SimTime::from_ns_saturating(v), lowest) << v;
  }
}

TEST(SimTime, FractionalConstructorsSaturate) {
  // from_us, from_ms and from_sec round v x unit to the nearest ns, and
  // scaled rounds ns x f: a product of 2^63 ns or more gives max() and one
  // below -2^63 the most negative time, where a plain cast would be
  // undefined. Run under UBSan with float-cast-overflow, this also checks
  // that no such cast remains.
  const double inf = std::numeric_limits<double>::infinity();
  const SimTime lowest = SimTime::ns(std::numeric_limits<std::int64_t>::min());
  struct Conversion {
    const char* name;
    double unit;  // nanoseconds per unit of the argument
    SimTime (*make)(double);
  };
  const Conversion conversions[] = {
      {"from_us", 1e3, SimTime::from_us},
      {"from_ms", 1e6, SimTime::from_ms},
      {"from_sec", 1e9, SimTime::from_sec},
      {"scaled", 1.0, [](double f) { return SimTime::ns(1).scaled(f); }},
  };
  for (const Conversion& c : conversions) {
    SCOPED_TRACE(c.name);
    // The first argument above 2^63 ns: its product is above 2^63 before
    // rounding, so it rounds to 2^63 or more.
    const double edge = std::nextafter(0x1p63 / c.unit, inf);
    for (const double v : {edge, 1e300, inf}) {
      EXPECT_EQ(c.make(v), SimTime::max()) << v;
      EXPECT_EQ(c.make(-v), lowest) << -v;
    }
  }
  // scaled reaches the boundary itself: 2^63 ns saturates, -2^63 ns is
  // the most negative time, and the largest double below 2^63 rounds to
  // itself.
  EXPECT_EQ(SimTime::ns(1).scaled(0x1p63), SimTime::max());
  EXPECT_EQ(SimTime::ns(1).scaled(-0x1p63), lowest);
  EXPECT_EQ(SimTime::ns(1).scaled(std::nextafter(0x1p63, 0.0)),
            SimTime::ns(std::numeric_limits<std::int64_t>::max() - 1023));
  // In range, the rounding is to nearest, halves away from zero.
  EXPECT_EQ(SimTime::ns(3).scaled(0.5), SimTime::ns(2));
  EXPECT_EQ(SimTime::ns(-3).scaled(0.5), SimTime::ns(-2));
  EXPECT_EQ(SimTime::ns(3).scaled(0.25), SimTime::ns(1));
}

TEST(Rng, DeterministicAcrossInstances) {
  RngStream a(Seed{42}, 7);
  RngStream b(Seed{42}, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DistinctStreamsDiffer) {
  RngStream a(Seed{42}, 0);
  RngStream b(Seed{42}, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIndependentOfDrawCount) {
  RngStream parent1(Seed{9}, 3);
  RngStream parent2(Seed{9}, 3);
  (void)parent2.next_u64();  // parent2 has drawn; parent1 has not
  RngStream c1 = parent1.split(5);
  RngStream c2 = parent2.split(5);
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, UniformInRange) {
  RngStream r(Seed{1}, 0);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  RngStream r(Seed{2}, 0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(r.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, ExponentialMeanConverges) {
  RngStream r(Seed{3}, 0);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, NormalMoments) {
  RngStream r(Seed{4}, 0);
  OnlineStats st;
  for (int i = 0; i < 20000; ++i) st.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, MaxNormalMatchesNormalLoop) {
  // Every k up to 64 and a few larger, each entered with and without a
  // cached Box-Muller half; an odd k flips the cache for the next rep.
  // A stddev of 0 never skips; at 1e-15 the draws lie within a few ULPs
  // of the mean, so rounding, not r, decides the maximum, and ties abound.
  std::vector<std::uint64_t> ks;
  for (std::uint64_t k = 1; k <= 64; ++k) ks.push_back(k);
  for (const std::uint64_t k : {65, 127, 200, 1000}) ks.push_back(k);
  std::uint64_t stream = 0;
  for (const double mean : {-40.0, -1.5, 0.0, 2.5, 11.9}) {
    for (const double stddev : {0.0, 1e-15, 1e-9, 1e-3, 0.3, 1.0, 10.0}) {
      for (const bool cached : {false, true}) {
        for (const std::uint64_t k : ks) {
          SCOPED_TRACE(::testing::Message()
                       << "mean=" << mean << " stddev=" << stddev
                       << " cached=" << cached << " k=" << k);
          RngStream a(Seed{17}, ++stream);
          RngStream b(Seed{17}, stream);
          if (cached) {
            ASSERT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
          }
          for (int rep = 0; rep < 6; ++rep) {
            double reference = -std::numeric_limits<double>::infinity();
            for (std::uint64_t i = 0; i < k; ++i) {
              reference = std::max(reference, b.normal(mean, stddev));
            }
            ASSERT_EQ(a.max_normal(k, mean, stddev), reference);
          }
          expect_same_position(a, b);
        }
      }
    }
  }
  RngStream rng(Seed{17}, 0);
  EXPECT_THROW(rng.max_normal(0, 0.0, 1.0), SimError);
  EXPECT_THROW(rng.max_normal(2, 0.0, -1.0), SimError);
}

TEST(Rng, LognormalNsMatchesLognormalLoop) {
  // Lengths on both sides of the batch's 64-pair blocks, each entered with
  // and without a cached Box-Muller half; an odd length flips the cache
  // for the next rep. The shapes: Fig. 4-like medians, where the kernels
  // decide almost every draw; 1e13 ns, where the 1e-9 margin spans
  // thousands of nanoseconds and every pair is recomputed; 50 ns, where no
  // pair is; 0.5 ns, where most draws truncate to 0; sigma 3, the edge of
  // the kernels' domain; sigma 3.5 and 6, outside it, where every draw
  // takes the exact path, and at 6 some reach 2^63 ns and saturate.
  const struct {
    double median_ns;
    double sigma;
  } shapes[] = {{1.5e5, 0.5}, {6e3, 1.0}, {1e13, 1.0}, {50.0, 0.5},
                {0.5, 0.3},   {2e4, 3.0}, {2e4, 3.5}, {1e9, 6.0}};
  std::uint64_t stream = 0;
  for (const auto& [median_ns, sigma] : shapes) {
    const double mu = std::log(median_ns);
    for (const bool cached : {false, true}) {
      for (const std::size_t n :
           {0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 256, 257, 1000}) {
        SCOPED_TRACE(::testing::Message()
                     << "median=" << median_ns << " sigma=" << sigma
                     << " cached=" << cached << " n=" << n);
        RngStream a(Seed{29}, ++stream);
        RngStream b(Seed{29}, stream);
        if (cached) {
          ASSERT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
        }
        std::vector<SimTime> out(n);
        for (int rep = 0; rep < 3; ++rep) {
          a.lognormal_ns(mu, sigma, out);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i],
                      SimTime::from_ns_saturating(b.lognormal(mu, sigma)))
                << "i=" << i;
          }
        }
        expect_same_position(a, b);
      }
    }
  }
}

TEST(Rng, SincosKernelWithinItsBound) {
  // lognormal_ns's margin argument (DESIGN §6 "Exact fast paths") takes
  // the kernel within 2.5e-16 of the exact sin and cos of 2 pi u, and so
  // within 1.16e-15 of glibc's sin and cos of the rounded angle
  // 2.0 * M_PI * u, which is off by up to 6.9e-16 (glibc adds one ULP).
  // Checked on 2^20 random u, every k / 2^16, and 2,000 doubles on each
  // side of every eighth of a turn (the quadrant edges and the points
  // where the reduced angle is largest).
  std::vector<double> us;
  RngStream rng(Seed{31}, 0);
  for (int i = 0; i < (1 << 20); ++i) us.push_back(rng.uniform());
  for (int k = 0; k < (1 << 16); ++k) us.push_back(k / 65536.0);
  for (int e = 0; e <= 8; ++e) {
    double down = e / 8.0;
    double up = e / 8.0;
    for (int i = 0; i < 2000; ++i) {
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, 1.0);
      if (e > 0) us.push_back(down);
      if (e < 8) us.push_back(up);
    }
  }
  std::vector<double> sine(us.size());
  std::vector<double> cosine(us.size());
  sincos_2pi(us, sine, cosine);
  const long double pi = 3.14159265358979323846264338327950288L;
  double own = 0.0;
  double glibc = 0.0;
  for (std::size_t i = 0; i < us.size(); ++i) {
    const long double angle = 2.0L * pi * us[i];
    own = std::max({own,
                    static_cast<double>(std::abs(sine[i] - std::sin(angle))),
                    static_cast<double>(std::abs(cosine[i] - std::cos(angle)))});
    const double theta = 2.0 * M_PI * us[i];
    glibc = std::max({glibc, std::abs(sine[i] - std::sin(theta)),
                      std::abs(cosine[i] - std::cos(theta))});
    ASSERT_LE(own, 2.5e-16) << "u=" << us[i];
    ASSERT_LE(glibc, 1.16e-15) << "u=" << us[i];
  }
  // The grid reaches the bound's neighbourhood, so it tests the bound.
  EXPECT_GT(own, 1e-16);
}

TEST(Rng, ExpKernelWithinItsBound) {
  // The argument's other kernel bound: exp_kernel is within 2.5e-16 of
  // exp(x), relative, for |x| <= 44, and so within 4.7e-16 of glibc's exp
  // (one ULP). Checked on 2^21 + 1 evenly spaced x over [-44, 44], in
  // chunks.
  constexpr int kSteps = 1 << 21;
  constexpr std::size_t kChunk = 4096;
  std::vector<double> x;
  std::vector<double> v(kChunk);
  double own = 0.0;
  double glibc = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    x.push_back(-44.0 + 88.0 * i / kSteps);
    if (x.size() < kChunk && i < kSteps) continue;
    exp_kernel(x, std::span(v.data(), x.size()));
    for (std::size_t j = 0; j < x.size(); ++j) {
      own = std::max(own, static_cast<double>(std::abs(
                              v[j] / std::exp(static_cast<long double>(x[j])) -
                              1.0L)));
      glibc = std::max(glibc, std::abs(v[j] / std::exp(x[j]) - 1.0));
      ASSERT_LE(own, 2.5e-16) << "x=" << x[j];
      ASSERT_LE(glibc, 4.7e-16) << "x=" << x[j];
    }
    x.clear();
  }
  EXPECT_GT(own, 1e-16);
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  RngStream r(Seed{5}, 0);
  double sum_small = 0;
  double sum_large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum_small += double(r.poisson(0.5));
  for (int i = 0; i < n; ++i) sum_large += double(r.poisson(200.0));
  EXPECT_NEAR(sum_small / n, 0.5, 0.05);
  EXPECT_NEAR(sum_large / n, 200.0, 2.0);
}

TEST(Rng, PoissonZeroMean) {
  RngStream r(Seed{6}, 0);
  EXPECT_EQ(r.poisson(0.0), 0u);
  EXPECT_EQ(r.poisson(-1.0), 0u);
}

// poisson(mean) as it was written before its per-mean constant could be
// precomputed: exp(-mean) or sqrt(mean) taken on every draw.
std::uint64_t reference_poisson(RngStream& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    const double limit = std::exp(-mean);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > limit);
    return k - 1;
  }
  const double v = rng.normal(mean, std::sqrt(mean));
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

TEST(Rng, PrecomputedPoissonMatchesPerDrawConstant) {
  // Both branches and their boundary, each entered with and without a
  // cached Box-Muller half.
  std::uint64_t stream = 0;
  for (const double mean : {0.0, 1e-3, 5.0, 63.999, 64.0, 1e3, 1e6}) {
    const double param = RngStream::poisson_param(mean);
    for (const bool cached : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "mean=" << mean
                                        << " cached=" << cached);
      RngStream a(Seed{23}, ++stream);
      RngStream b(Seed{23}, stream);
      RngStream c(Seed{23}, stream);
      if (cached) {
        const double n = a.normal(0.0, 1.0);
        ASSERT_EQ(b.normal(0.0, 1.0), n);
        ASSERT_EQ(c.normal(0.0, 1.0), n);
      }
      for (int rep = 0; rep < 201; ++rep) {
        const std::uint64_t want = reference_poisson(b, mean);
        ASSERT_EQ(a.poisson(mean, param), want);
        ASSERT_EQ(c.poisson(mean), want);
      }
      RngStream b2 = b;
      expect_same_position(a, b);
      expect_same_position(c, b2);
    }
  }
}

TEST(Rng, PoissonNormalBranchWithinKsBound) {
  // From a mean of 64 up, poisson() draws a normal rounded to the nearest
  // integer, whose CDF at k is Phi((k + 0.5 - mean) / sqrt(mean)). Its
  // exact KS distance to the Poisson law, computed here from both CDFs,
  // falls as ~0.066 / sqrt(mean). The empirical CDF of N draws must stay
  // within that distance plus the DKW term sqrt(ln(2 / alpha) / 2N) at
  // alpha = 1e-6 (0.0060 at N = 200,000).
  constexpr int kDraws = 200'000;
  const double dkw = std::sqrt(std::log(2.0 / 1e-6) / (2.0 * kDraws));
  RngStream rng(Seed{42}, 7);
  for (const double mean : {64.0, 256.0, 4096.0}) {
    const double sd = std::sqrt(mean);
    const auto top = static_cast<std::uint64_t>(mean + 12.0 * sd);
    std::vector<std::uint64_t> counts(top + 1, 0);
    for (int i = 0; i < kDraws; ++i) {
      ++counts[std::min(rng.poisson(mean), top)];
    }
    double poisson_cdf = 0.0;
    double empirical_cdf = 0.0;
    double exact_ks = 0.0;
    double empirical_ks = 0.0;
    for (std::uint64_t k = 0; k <= top; ++k) {
      const auto kd = static_cast<double>(k);
      poisson_cdf +=
          std::exp(kd * std::log(mean) - mean - std::lgamma(kd + 1.0));
      empirical_cdf += static_cast<double>(counts[k]) / kDraws;
      const double rounded_normal_cdf =
          0.5 * std::erfc((mean - kd - 0.5) / (sd * std::sqrt(2.0)));
      exact_ks =
          std::max(exact_ks, std::abs(rounded_normal_cdf - poisson_cdf));
      empirical_ks =
          std::max(empirical_ks, std::abs(empirical_cdf - poisson_cdf));
    }
    EXPECT_NEAR(exact_ks * sd, 0.066, 0.004) << "mean " << mean;
    EXPECT_LT(empirical_ks, exact_ks + dkw) << "mean " << mean;
  }
}

TEST(OnlineStats, WelfordMatchesDirect) {
  OnlineStats st;
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7};
  for (double x : xs) st.add(x);
  EXPECT_EQ(st.count(), xs.size());
  EXPECT_DOUBLE_EQ(st.mean(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 7.0);
  // Sample variance of 1..7 = 28/6.
  EXPECT_NEAR(st.variance(), 28.0 / 6.0, 1e-12);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 50), 25);
}

TEST(LogHistogram, CountsAndQuantiles) {
  LogHistogram h(1.0, 1000.0, 30);
  for (int i = 1; i <= 100; ++i) h.add(double(i));
  EXPECT_EQ(h.total_count(), 100u);
  EXPECT_DOUBLE_EQ(h.observed_max(), 100.0);
  // Median should land near 50 (within a bin width).
  EXPECT_NEAR(h.quantile(0.5), 50.0, 15.0);
  EXPECT_LE(h.quantile(1.0), 100.0 + 1e-9);
}

TEST(LogHistogram, ClampsOutOfRange) {
  LogHistogram h(10.0, 100.0, 4);
  h.add(1.0);     // below range -> first bin
  h.add(1e6);     // above range -> last bin
  EXPECT_EQ(h.total_count(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1.0, 100.0, 8);
  LogHistogram b(1.0, 100.0, 8);
  a.add(2.0);
  b.add(50.0);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 2u);
  EXPECT_DOUBLE_EQ(a.observed_max(), 50.0);
  LogHistogram incompatible(1.0, 100.0, 9);
  EXPECT_THROW(a.merge(incompatible), std::invalid_argument);
}

TEST(LogHistogram, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LogHistogram h(1.0, 100.0, 8);
  EXPECT_THROW(h.add(nan), std::invalid_argument);
  EXPECT_THROW(h.add_n(-nan, 3), std::invalid_argument);
  EXPECT_EQ(h.total_count(), 0u);
  h.add(50.0);
  EXPECT_THROW(h.add(nan), std::invalid_argument);
  // A rejected sample leaves the counts and the observed range alone.
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_EQ(h.observed_min(), 50.0);
  EXPECT_EQ(h.observed_max(), 50.0);
}

// LogHistogram's log formula, kept here as the reference its table binning
// must reproduce.
struct ReferenceBinning {
  ReferenceBinning(double min_value, double max_value, std::size_t bins)
      : log_min(std::log(min_value)), log_max(std::log(max_value)),
        bins(bins) {}
  std::size_t bin(double value) const {
    if (value <= 0.0) return 0;
    const double lv = std::log(value);
    if (lv <= log_min) return 0;
    if (lv >= log_max) return bins - 1;
    const double frac = (lv - log_min) / (log_max - log_min);
    const auto idx =
        static_cast<std::size_t>(frac * static_cast<double>(bins));
    return std::min(idx, bins - 1);
  }
  double log_min;
  double log_max;
  std::size_t bins;
};

TEST(LogHistogram, TableBinningMatchesLogFormula) {
  struct Layout {
    double min_value;
    double max_value;
    std::size_t bins;
  };
  // Every layout the tree constructs (campaign CDF, duration_us_histogram,
  // offload latencies, proxy backlog, IKC in-flight), the layouts of the
  // tests above, and one whose |log| range is too wide for a table.
  const Layout layouts[] = {{1000.0, 1e6, 2048}, {1e-3, 1e7, 2315},
                            {0.1, 1e5, 48},      {1.0, 1024.0, 24},
                            {1.0, 4096.0, 32},   {1.0, 1000.0, 30},
                            {10.0, 100.0, 4},    {1e-40, 1e40, 64}};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Layout& l : layouts) {
    SCOPED_TRACE(::testing::Message() << "layout {" << l.min_value << ", "
                                      << l.max_value << ", " << l.bins
                                      << "}");
    const ReferenceBinning ref(l.min_value, l.max_value, l.bins);
    LogHistogram h(l.min_value, l.max_value, l.bins);
    // Each value must raise exactly the reference bin's count by one.
    std::vector<std::uint64_t> expected(l.bins, 0);
    std::uint64_t added = 0;
    std::uint64_t mismatches = 0;
    double first_mismatch = 0.0;
    const auto check = [&](double v) {
      const std::size_t want = ref.bin(v);
      h.add(v);
      ++added;
      if (h.bin_count(want) == ++expected[want]) return;
      if (mismatches++ == 0) first_mismatch = v;
      for (std::size_t i = 0; i < l.bins; ++i) expected[i] = h.bin_count(i);
    };
    // Every edge, min and max included, +- 2,000 ULPs.
    for (std::size_t i = 0; i <= l.bins; ++i) {
      double v = h.bin_lower(i);
      for (int u = 0; u < 2000; ++u) v = std::nextafter(v, 0.0);
      for (int u = 0; u <= 4000; ++u, v = std::nextafter(v, kInf)) check(v);
    }
    // 10^6 log-uniform values over [min/3, 3 max].
    RngStream rng(Seed{14}, l.bins);
    const double lo = std::log(l.min_value / 3.0);
    const double hi = std::log(3.0 * l.max_value);
    for (int i = 0; i < 1'000'000; ++i) {
      check(std::exp(lo + (hi - lo) * rng.uniform()));
    }
    for (const double v :
         {0.0, -0.0, -1.0, -kInf, std::numeric_limits<double>::denorm_min(),
          1e-310, std::numeric_limits<double>::min(), l.min_value,
          l.max_value, std::numeric_limits<double>::max(), kInf}) {
      check(v);
    }
    EXPECT_EQ(mismatches, 0u) << "first at " << std::hexfloat
                              << first_mismatch;
    EXPECT_EQ(h.total_count(), added);
  }
}

// ---- LogHistogram as the repo's one distribution type: the quantile
// contract the timeline and the span sampler rely on.

TEST(LogHistogram, EmptyHistogramReturnsZero) {
  const LogHistogram h = duration_us_histogram();
  EXPECT_EQ(h.total_count(), 0u);
  for (double q : {0.0, 0.5, 1.0}) EXPECT_EQ(h.quantile(q), 0.0) << q;
}

TEST(LogHistogram, SingleValueEveryQuantileIsThatValue) {
  LogHistogram h = duration_us_histogram();
  h.add(42.5);
  // Clamping to the observed [min, max] makes one-sample histograms exact.
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 42.5) << "q=" << q;
  }
}

TEST(LogHistogram, QuantileNeverLeavesTheObservedRange) {
  // Fig. 4's layout: the first bin [1000, 1003.4) us is empty, so the
  // q = 0 search stops there and its upper edge lies below every sample.
  LogHistogram h(1000.0, 1e6, 2048);
  h.add(6500.0);
  h.add(7000.0);
  EXPECT_EQ(h.quantile(0.0), 6500.0);
  EXPECT_EQ(h.quantile(1.0), 7000.0);
  // Every sample above the top edge: the last bin's upper edge (10) would
  // again lie below all of them.
  LogHistogram above(1.0, 10.0, 4);
  above.add(20.0);
  above.add(30.0);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(above.quantile(q), 20.0) << q;
    EXPECT_LE(above.quantile(q), 30.0) << q;
  }
}

TEST(LogHistogram, WeightedAddEqualsRepeatedAdd) {
  LogHistogram weighted = duration_us_histogram();
  LogHistogram repeated = duration_us_histogram();
  RngStream rng(Seed{5}, 0);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.lognormal(3.0, 1.0);
    const auto w = static_cast<std::uint64_t>(1 + i % 7);
    weighted.add_n(v, w);
    for (std::uint64_t k = 0; k < w; ++k) repeated.add(v);
  }
  ASSERT_EQ(weighted.total_count(), repeated.total_count());
  for (std::size_t i = 0; i < weighted.num_bins(); ++i) {
    ASSERT_EQ(weighted.bin_count(i), repeated.bin_count(i)) << i;
  }
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(weighted.quantile(q), repeated.quantile(q)) << q;
  }
  // Zero-weight adds are no-ops.
  const double before = weighted.quantile(0.5);
  weighted.add_n(1e9, 0);
  EXPECT_EQ(weighted.quantile(0.5), before);
  EXPECT_EQ(weighted.total_count(), repeated.total_count());
}

TEST(LogHistogram, AddEachEqualsAddNPerValue) {
  LogHistogram each = duration_us_histogram();
  LogHistogram one_by_one = duration_us_histogram();
  RngStream rng(Seed{6}, 0);
  std::vector<double> chunk;
  for (int c = 0; c < 20; ++c) {
    chunk.clear();
    for (int i = 0; i < 1 + 13 * c; ++i) chunk.push_back(rng.lognormal(3.0, 1.5));
    const auto w = static_cast<std::uint64_t>(1 + c % 4);
    each.add_each(chunk, w);
    for (const double v : chunk) one_by_one.add_n(v, w);
    ASSERT_EQ(each.total_count(), one_by_one.total_count());
    ASSERT_EQ(each.observed_min(), one_by_one.observed_min());
    ASSERT_EQ(each.observed_max(), one_by_one.observed_max());
  }
  for (std::size_t i = 0; i < each.num_bins(); ++i) {
    ASSERT_EQ(each.bin_count(i), one_by_one.bin_count(i)) << i;
  }
  // Empty chunks and zero weights are no-ops; a NaN anywhere in a chunk
  // throws before any update.
  each.add_each({}, 3);
  each.add_each(chunk, 0);
  const std::vector<double> with_nan = {
      1.0, 5e6, std::numeric_limits<double>::quiet_NaN(), 1e-6};
  EXPECT_THROW(each.add_each(with_nan, 2), std::invalid_argument);
  EXPECT_EQ(each.total_count(), one_by_one.total_count());
  EXPECT_EQ(each.observed_min(), one_by_one.observed_min());
  EXPECT_EQ(each.observed_max(), one_by_one.observed_max());
  for (std::size_t i = 0; i < each.num_bins(); ++i) {
    ASSERT_EQ(each.bin_count(i), one_by_one.bin_count(i)) << i;
  }
}

TEST(LogHistogram, MergeIsExactAndOrderInvariant) {
  RngStream rng(Seed{8}, 3);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.lognormal(4.0, 1.2));

  LogHistogram whole = duration_us_histogram();
  for (double v : samples) whole.add(v);

  // 8 ragged shards, merged forward and reversed: integer bin counts make
  // both orders bit-identical to the single pass.
  std::vector<LogHistogram> shards(8, duration_us_histogram());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    shards[(i * i + 3) % shards.size()].add(samples[i]);
  }
  LogHistogram forward = duration_us_histogram();
  for (const auto& s : shards) forward.merge(s);
  LogHistogram reversed = duration_us_histogram();
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reversed.merge(*it);
  }
  for (const LogHistogram* m : {&forward, &reversed}) {
    ASSERT_EQ(m->total_count(), whole.total_count());
    EXPECT_EQ(m->observed_min(), whole.observed_min());
    EXPECT_EQ(m->observed_max(), whole.observed_max());
    for (std::size_t i = 0; i < whole.num_bins(); ++i) {
      ASSERT_EQ(m->bin_count(i), whole.bin_count(i)) << i;
    }
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(m->quantile(q), whole.quantile(q)) << q;
    }
  }
}

TEST(LogHistogram, ZeroAndNegativeValuesLandInTheFirstBin) {
  LogHistogram h = duration_us_histogram();
  h.add(0.0);
  h.add(-3.0);
  h.add(h.bin_lower(0));  // at the bottom edge: the first bin as well
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_EQ(h.bin_count(0), 3u);
  // The first bin's upper edge, clamped to the largest sample.
  EXPECT_EQ(h.quantile(0.5), h.observed_max());
  // Mixed stream: the first bin holds the low ranks, positives the high.
  h.add(10.0);
  h.add(10.0);
  EXPECT_EQ(h.quantile(0.0), h.bin_upper(0));
  EXPECT_EQ(h.quantile(0.5), h.bin_upper(0));
  EXPECT_EQ(h.observed_min(), -3.0);  // observed min still reported
  EXPECT_EQ(h.quantile(1.0), 10.0);
}

// Erase and growth both while the live elements wrap past the end of the
// array: order survives, and pops return what was pushed.
TEST(RingFifo, EraseAndGrowKeepOrderAcrossTheWrap) {
  RingFifo<int> q;
  std::deque<int> want;
  auto push = [&](int v) {
    q.push_back(v);
    want.push_back(v);
  };
  auto pop = [&] {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop_front(), want.front());
    want.pop_front();
  };
  for (int v = 1; v <= 6; ++v) push(v);  // capacity 8
  for (int i = 0; i < 3; ++i) pop();
  for (int v : {7, 5, 8, 9, 5}) push(v);  // full, wrapped
  q.erase(5);
  std::erase(want, 5);
  q.erase(42);  // absent: no change
  EXPECT_EQ(q.size(), want.size());
  for (int v = 10; v <= 30; ++v) push(v);  // grows twice, first when wrapped
  pop();
  q.erase(12);
  std::erase(want, 12);
  while (!want.empty()) pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(LogHistogram, MergeRejectsMismatchedLayout) {
  // The duration layout against the same range at 5 % edges
  // (ceil(ln(1e10) / ln(1.05)) = 472 bins) and against the same bin count
  // over a shifted range: neither merges, and a refused merge changes
  // nothing.
  LogHistogram a = duration_us_histogram();
  LogHistogram coarser(1e-3, 1e7, 472);
  LogHistogram shifted(1e-2, 1e8, a.num_bins());
  coarser.add(1.0);
  shifted.add(1.0);
  EXPECT_THROW(a.merge(coarser), std::invalid_argument);
  EXPECT_THROW(a.merge(shifted), std::invalid_argument);
  EXPECT_EQ(a.total_count(), 0u);
  // Merging an empty same-layout histogram is a no-op.
  a.add(5.0);
  a.merge(duration_us_histogram());
  EXPECT_EQ(a.total_count(), 1u);
  EXPECT_EQ(a.quantile(0.5), 5.0);
}

TEST(LogHistogram, DurationLayoutEdgesAtMostOnePercentApart) {
  const LogHistogram h = duration_us_histogram();
  EXPECT_DOUBLE_EQ(h.bin_lower(0), 1e-3);
  EXPECT_DOUBLE_EQ(h.bin_upper(h.num_bins() - 1), 1e7);
  // Every bin has the same edge ratio; one bin fewer would exceed 1 %.
  EXPECT_LE(h.bin_upper(0) / h.bin_lower(0), 1.01);
  const LogHistogram fewer(1e-3, 1e7, h.num_bins() - 1);
  EXPECT_GT(fewer.bin_upper(0) / fewer.bin_lower(0), 1.01);
}

TEST(LogHistogram, QuantilesWithinBinRatioOfBatchPercentile) {
  // Lognormal overhead-like data spanning ~4 decades, on the duration
  // layout's [1e-3, 1e7] range at edge ratios of 1 % (the layout itself)
  // and 5 %: every quantile, the extremes included, sits within one edge
  // ratio of the percentile_sorted reference (test_support.h).
  for (double ratio : {1.01, 1.05}) {
    const auto bins = static_cast<std::size_t>(
        std::ceil(std::log(1e7 / 1e-3) / std::log(ratio)));
    LogHistogram h(1e-3, 1e7, bins);
    std::vector<double> samples;
    RngStream rng(Seed{6}, 1);
    for (int i = 0; i < 20000; ++i) {
      const double v = rng.lognormal(2.0, 1.4);
      samples.push_back(v);
      h.add(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.0, 0.05, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double exact = percentile_sorted(samples, q * 100.0);
      EXPECT_NEAR(h.quantile(q), exact, (ratio - 1.0) * exact)
          << "ratio=" << ratio << " q=" << q;
    }
  }
}

TEST(LogHistogram, ConstructorRejectsBadLayout) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(-1.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::fmt(1.5)});
  t.add_row({"b", TextTable::fmt_sci(0.0000045)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("4.50E-06"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_THROW(t.add_row({"a", "b", "c"}), std::invalid_argument);
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(
          100, [](std::size_t i) { if (i == 37) throw std::runtime_error("x"); },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, FailsFastAfterException) {
  // Once one invocation throws, the shared stop flag must halt dispatch:
  // workers finish the chunk they hold but claim no new ones, so only a
  // small fraction of the range is ever visited.
  //
  // The thrower can be descheduled between its throw and the stop flag.
  // So that the other participants cannot run the range meanwhile, every
  // later invocation first waits until the group is cancelled: a nested
  // group inherits the cancellation and retires its chunks unrun, so a
  // nested parallel_for that runs nothing shows it.
  const std::size_t count = 100000;
  std::atomic<std::size_t> invoked{0};
  std::atomic<bool> thrown{false};
  std::atomic<bool> timed_out{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_until_cancelled = [&] {
    while (!timed_out.load()) {
      std::atomic<int> ran{0};
      parallel_for(2, [&](std::size_t) { ran.fetch_add(1); }, 2);
      if (ran.load() == 0) return;
      if (std::chrono::steady_clock::now() > deadline) {
        if (!timed_out.exchange(true)) {
          ADD_FAILURE() << "no cancellation 10 s after the throw";
        }
        return;
      }
      std::this_thread::yield();
    }
  };
  EXPECT_THROW(
      parallel_for(
          count,
          [&](std::size_t) {
            if (!thrown.exchange(true)) throw std::runtime_error("boom");
            wait_until_cancelled();
            invoked.fetch_add(1);
          },
          4),
      std::runtime_error);
  // Only chunks already in flight can finish: at most 4 participants x one
  // chunk (count / 32) = 12,500.
  EXPECT_LT(invoked.load(), count / 2);
}

TEST(ParallelFor, PoolSurvivesRepeatedDispatch) {
  // The persistent worker pool must stay healthy across many calls
  // (campaign drivers issue one dispatch per shard sweep).
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(257, 0);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelFor, NestedCallsCoverEveryIndexOnce) {
  // Nested calls now enqueue into the scheduler instead of degrading to
  // serial; coverage must stay exactly-once at both levels.
  std::vector<std::atomic<int>> hits(8 * 16);
  parallel_for(
      8,
      [&](std::size_t outer) {
        parallel_for(
            16,
            [&](std::size_t inner) { hits[outer * 16 + inner].fetch_add(1); },
            4);
      },
      4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedWorkIsDistributedAcrossThreads) {
  // The scheduler's point: an inner parallel_for issued from inside a
  // running worker must have its chunks claimed by idle participants, not
  // run serially on the nested caller. One outer task is trivial so its
  // thread goes idle; the other runs a slow inner loop whose chunks the
  // idle thread picks up (parallel.steals counts chunks run by a thread
  // other than the one that issued their group).
  // Let the pool park first, so the calls below must wake a worker.
  parallel_for(8, [](std::size_t) {}, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t nested_before = host_count("parallel.nested_groups");
  const std::uint64_t steals_before = host_count("parallel.steals");
  std::mutex m;
  std::set<std::thread::id> inner_threads;
  parallel_for(
      2,
      [&](std::size_t outer) {
        if (outer == 0) return;
        parallel_for(
            32,
            [&](std::size_t) {
              {
                std::lock_guard<std::mutex> lock(m);
                inner_threads.insert(std::this_thread::get_id());
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            },
            2);
      },
      2);
  EXPECT_GE(host_count("parallel.nested_groups") - nested_before, 1u);
  EXPECT_GE(host_count("parallel.steals") - steals_before, 1u);
  EXPECT_GE(inner_threads.size(), 2u);
}

TEST(ParallelFor, WakesOnlyNeededWorkers) {
  // Dispatch must wake at most threads - 1 sleeping workers per call —
  // never the whole pool (parallel.wakeups.count is the proof). Serial
  // calls must wake nobody.
  parallel_for(64, [](std::size_t) {}, 2);  // warm the pool
  const std::uint64_t before = host_count("parallel.wakeups");
  const std::uint64_t rounds = 100;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    parallel_for(256, [](std::size_t) {}, 2);
  }
  EXPECT_LE(host_count("parallel.wakeups") - before, rounds);

  const std::uint64_t serial_before = host_count("parallel.wakeups");
  for (int r = 0; r < 10; ++r) {
    parallel_for(100, [](std::size_t) {}, 1);
  }
  EXPECT_EQ(host_count("parallel.wakeups"), serial_before);
}

TEST(ParallelFor, OversubscribedRequestIsHonoredUpToCapacity) {
  // threads far beyond the pool must clamp to parallel_capacity() —
  // explicitly, with exactly-once coverage and without assuming helpers
  // that don't exist (the old pool's max_helpers bug).
  ASSERT_GE(parallel_capacity(), 2u);
  std::vector<std::atomic<int>> hits(5000);
  const std::uint64_t before = host_count("parallel.wakeups");
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
               1000);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  // One dispatch can wake at most the pool, not the requested 999.
  EXPECT_LE(host_count("parallel.wakeups") - before, parallel_capacity() - 1);
}

TEST(ParallelFor, HostCounterTableIsExactStableAndSorted) {
  // The host-counter table under the scheduler's real concurrency:
  // writers inside nested parallel_for groups, where every add must land
  // and note_max must keep the true maximum.
  obs::prof::HostCounter* const sum = obs::prof::host_counter("test.table.sum");
  obs::prof::HostCounter* const max = obs::prof::host_counter("test.table.max");
  // Find-or-create hands back the same counter.
  EXPECT_EQ(obs::prof::host_counter("test.table.sum"), sum);
  EXPECT_NE(sum, max);
  obs::prof::reset_host_counters("test.table.");

  constexpr std::uint64_t kOuter = 16;
  constexpr std::uint64_t kInner = 64;
  parallel_for(
      kOuter,
      [&](std::size_t o) {
        parallel_for(
            kInner,
            [&](std::size_t i) {
              sum->add(i + 1);
              max->note_max(o * kInner + i);
            },
            4);
      },
      4);
  EXPECT_EQ(sum->value(), kOuter * kInner * (kInner + 1) / 2);
  EXPECT_EQ(max->value(), kOuter * kInner - 1);

  // One name-sorted snapshot reads the table; absent names read 0.
  const obs::prof::HostCounterSnapshot snap =
      obs::prof::host_counter_snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_EQ(snap.value("test.table.sum"), sum->value());
  EXPECT_EQ(snap.value("test.table.max"), max->value());
  EXPECT_EQ(snap.value("test.table.absent"), 0u);
  // The scheduler's own dispatch counters live in the same table.
  EXPECT_GE(snap.value("parallel.groups"), 1u);
  EXPECT_GE(snap.value("parallel.nested_groups"), 1u);

  obs::prof::reset_host_counters("test.table.");
  EXPECT_EQ(sum->value(), 0u);
  EXPECT_EQ(max->value(), 0u);
}

TEST(ParallelFor, NestedExceptionPropagatesThroughOuterGroup) {
  // An inner-group exception rethrows at the inner call site (inside the
  // outer fn), is caught by the outer chunk, and surfaces from the outer
  // parallel_for — the documented contract, now across real nesting.
  EXPECT_THROW(
      parallel_for(
          4,
          [&](std::size_t) {
            parallel_for(
                64,
                [&](std::size_t i) {
                  if (i == 7) throw std::runtime_error("inner");
                },
                2);
          },
          2),
      std::runtime_error);
}

TEST(DefaultParallelism, IsAtLeastOne) {
  EXPECT_GE(default_parallelism(), 1u);
}

#ifdef __linux__
TEST(DefaultParallelism, FollowsAffinityMask) {
  // hardware_concurrency() over-reports under taskset/cgroup cpusets
  // (the ROADMAP's 1-CPU CI container); default_parallelism() must
  // follow the affinity mask instead.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(default_parallelism(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));

  int first = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved)) {
      first = c;
      break;
    }
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(default_parallelism(), 1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(default_parallelism(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

}  // namespace
}  // namespace hpcos
