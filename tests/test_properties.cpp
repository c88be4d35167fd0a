// Property-based tests: parameterized sweeps over distributions, the DES,
// CPU-set algebra, and the statistical machinery's internal consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <ostream>

#include "cluster/fwq_campaign.h"
#include "common/rng.h"
#include "hw/cpuset.h"
#include "noise/analytic.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

// ---- inverse normal CDF ----

struct NormalQuantileCase {
  double p;
  double z;  // reference value
};

class InverseNormalCdf : public ::testing::TestWithParam<NormalQuantileCase> {
};

TEST_P(InverseNormalCdf, MatchesReferenceValues) {
  const auto [p, z] = GetParam();
  // Acklam without a Newton polish is good to ~1e-3 in the far tails.
  EXPECT_NEAR(noise::inverse_normal_cdf(p), z, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    KnownQuantiles, InverseNormalCdf,
    ::testing::Values(NormalQuantileCase{0.5, 0.0},
                      NormalQuantileCase{0.8413447, 1.0},
                      NormalQuantileCase{0.9772499, 2.0},
                      NormalQuantileCase{0.9986501, 3.0},
                      NormalQuantileCase{0.1586553, -1.0},
                      NormalQuantileCase{0.0227501, -2.0},
                      NormalQuantileCase{0.999999713, 5.0},
                      NormalQuantileCase{1e-9, -5.9978}));

TEST(InverseNormalCdfFn, RoundTripsThroughErfc) {
  // Phi(z) = 0.5 * erfc(-z / sqrt(2)); the inverse must undo it.
  for (double z = -4.0; z <= 4.0; z += 0.25) {
    const double p = 0.5 * std::erfc(-z / std::sqrt(2.0));
    EXPECT_NEAR(noise::inverse_normal_cdf(p), z, 1e-3) << "z=" << z;
  }
}

// ---- DurationDist properties over a parameter sweep ----

struct DistCase {
  std::int64_t median_us;
  double sigma;
  std::int64_t max_us;
};

class DurationDistProperty : public ::testing::TestWithParam<DistCase> {
 protected:
  noise::DurationDist dist() const {
    const auto [median_us, sigma, max_us] = GetParam();
    return noise::DurationDist{.median = SimTime::us(median_us),
                               .sigma = sigma,
                               .min = SimTime::zero(),
                               .max = SimTime::us(max_us)};
  }
};

TEST_P(DurationDistProperty, SamplesRespectClamp) {
  const auto d = dist();
  RngStream rng(Seed{11}, 0);
  for (int i = 0; i < 2000; ++i) {
    const SimTime s = d.sample(rng);
    EXPECT_GE(s, d.min);
    EXPECT_LE(s, d.max);
  }
}

TEST_P(DurationDistProperty, QuantileIsMonotone) {
  const auto d = dist();
  SimTime prev = SimTime::zero();
  for (double q = 0.01; q < 1.0; q += 0.01) {
    const SimTime v = d.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_P(DurationDistProperty, MedianQuantileIsMedian) {
  const auto d = dist();
  const SimTime q50 = d.quantile(0.5);
  const SimTime expect =
      std::clamp(d.median, d.min, d.max);
  EXPECT_NEAR(q50.to_us(), expect.to_us(), expect.to_us() * 0.01 + 0.1);
}

TEST_P(DurationDistProperty, EmpiricalQuantileMatchesInverseCdf) {
  const auto d = dist();
  RngStream rng(Seed{12}, 1);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) samples.push_back(d.sample(rng).to_us());
  std::sort(samples.begin(), samples.end());
  for (double q : {0.25, 0.5, 0.75, 0.9}) {
    const double analytic = d.quantile(q).to_us();
    const double empirical = percentile_sorted(samples, q * 100.0);
    EXPECT_NEAR(empirical, analytic, analytic * 0.08 + 0.5)
        << "q=" << q;
  }
}

TEST_P(DurationDistProperty, MaxOfKStochasticallyDominates) {
  const auto d = dist();
  RngStream rng(Seed{13}, 2);
  // Mean of max-of-64 must exceed mean of single draws; mean of
  // max-of-4096 (inverse-CDF path) must exceed max-of-64 (direct path) —
  // this ties the two implementations together.
  double single = 0;
  double max64 = 0;
  double max4096 = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    single += d.sample(rng).to_us();
    max64 += d.sample_max(64, rng).to_us();
    max4096 += d.sample_max(4096, rng).to_us();
  }
  if (GetParam().sigma > 0.0) {
    EXPECT_GT(max64 / n, single / n);
    EXPECT_GE(max4096 / n, max64 / n * 0.95);
  } else {
    EXPECT_DOUBLE_EQ(max64 / n, single / n);  // constant distribution
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DurationDistProperty,
    ::testing::Values(DistCase{50, 0.0, 200}, DistCase{50, 0.3, 500},
                      DistCase{100, 0.6, 1000}, DistCase{10, 1.0, 10000},
                      DistCase{1000, 0.45, 8000}));

// ---- Simulator determinism over random event programs ----

class SimulatorDeterminism : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorDeterminism, SameSeedSameTrajectory) {
  auto run = [&](std::uint64_t seed) {
    sim::Simulator s;
    RngStream rng(Seed{seed}, 0);
    std::vector<std::int64_t> fired;
    // Random self-extending event program.
    std::function<void(int)> spawn = [&](int depth) {
      fired.push_back(s.now().count_ns());
      if (depth >= 6) return;
      const int children = static_cast<int>(rng.uniform_index(3));
      for (int c = 0; c < children; ++c) {
        s.schedule_after(rng.uniform_time(1_ns, 1_ms),
                         [&, depth] { spawn(depth + 1); });
      }
    };
    for (int i = 0; i < 20; ++i) {
      s.schedule_after(rng.uniform_time(1_ns, 1_ms), [&] { spawn(0); });
    }
    while (s.step()) {}
    return fired;
  };
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  EXPECT_EQ(a, b);
  // Timestamps never go backwards.
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorDeterminism,
                         ::testing::Values(1u, 17u, 523u, 99991u));

// ---- CpuSet algebra over random sets ----

class CpuSetAlgebra : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  hw::CpuSet random_set(RngStream& rng, std::size_t n) const {
    hw::CpuSet s(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.4)) s.set(static_cast<hw::CoreId>(i));
    }
    return s;
  }
};

TEST_P(CpuSetAlgebra, DeMorganAndPartitionLaws) {
  RngStream rng(Seed{GetParam()}, 3);
  const std::size_t n = 64;
  const hw::CpuSet universe = hw::CpuSet::all(n);
  for (int trial = 0; trial < 50; ++trial) {
    const hw::CpuSet a = random_set(rng, n);
    const hw::CpuSet b = random_set(rng, n);
    // |A| + |B| = |A u B| + |A n B|
    EXPECT_EQ(a.count() + b.count(), (a | b).count() + (a & b).count());
    // A \ B and A n B partition A.
    EXPECT_EQ(a.minus(b).count() + (a & b).count(), a.count());
    EXPECT_FALSE(a.minus(b).intersects(b));
    // Universe decomposition.
    EXPECT_EQ(universe.minus(a).count(), n - a.count());
    EXPECT_TRUE(universe.contains(a));
    // Iteration agrees with count.
    EXPECT_EQ(a.to_vector().size(), a.count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuSetAlgebra,
                         ::testing::Values(2u, 77u, 4242u));

// ---- FWQ campaign consistency across scopes ----

struct ScopeCase {
  noise::SourceScope scope;
  int app_cores;
};

// gtest names a case by the raw bytes of its parameter, and the three
// padding bytes after `scope` hold whatever the copy left there. Print the
// same byte dump from a zero-filled image so a case's name is fixed.
void PrintTo(const ScopeCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(ScopeCase)] = {};
  std::memcpy(bytes + offsetof(ScopeCase, scope), &c.scope, sizeof c.scope);
  std::memcpy(bytes + offsetof(ScopeCase, app_cores), &c.app_cores,
              sizeof c.app_cores);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class SamplerScope : public ::testing::TestWithParam<ScopeCase> {};

TEST_P(SamplerScope, MeanOverheadMatchesClosedForm) {
  const auto [scope, cores] = GetParam();
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "s",
      .kind = noise::SourceKind::kHardware,
      .scope = scope,
      .mean_interval = 50_ms,
      .duration = noise::DurationDist{.median = 20_us, .sigma = 0.0,
                                      .min = SimTime::zero(),
                                      .max = 20_us}});
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = 1;
  cfg.app_cores = cores;
  cfg.duration_per_core = cfg.work_quantum * 40000;
  cfg.seed = Seed{21};
  const auto r = cluster::run_fwq_campaign(p, cfg);
  // Mean extra time per core-iteration (no jitter floor: T_min is the
  // quantum). Per-core & all-cores: every core sees each occurrence;
  // per-node: the per-core rate divides by the core count.
  const double extra_us = r.stats.noise_rate * r.stats.t_min.to_us();
  const double divisor =
      scope == noise::SourceScope::kPerNodeRandomCore ? cores : 1;
  const double expected = (6.5 / 50.0) * 20.0 / divisor;
  EXPECT_NEAR(extra_us, expected, expected * 0.12 + 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, SamplerScope,
    ::testing::Values(ScopeCase{noise::SourceScope::kPerCore, 48},
                      ScopeCase{noise::SourceScope::kAllCores, 48},
                      ScopeCase{noise::SourceScope::kPerNodeRandomCore, 48},
                      ScopeCase{noise::SourceScope::kPerNodeRandomCore, 4}));

}  // namespace
}  // namespace hpcos
