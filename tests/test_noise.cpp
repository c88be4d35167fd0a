// Unit tests: FWQ machinery, the paper's noise metrics (Eq. 1 / Eq. 2),
// duration distributions, analytic samplers, the canonical profiles, and
// DES-vs-analytic consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/confighash.h"
#include "kernel_test_util.h"
#include "noise/analytic.h"
#include "noise/background.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "noise/profiles.h"

namespace hpcos::noise {
namespace {

using namespace hpcos::literals;

TEST(Metrics, NoiseStatsBasics) {
  const std::vector<SimTime> ts{SimTime::from_ms(6.5), SimTime::from_ms(6.5),
                                SimTime::from_ms(7.0), SimTime::from_ms(6.6)};
  const NoiseStats s = compute_noise_stats(ts);
  EXPECT_EQ(s.t_min, SimTime::from_ms(6.5));
  EXPECT_EQ(s.t_max, SimTime::from_ms(7.0));
  EXPECT_EQ(s.max_noise_length, 500_us);
  // Eq. 2: mean of (Ti - Tmin)/Tmin = (0 + 0 + 0.5/6.5 + 0.1/6.5)/4.
  EXPECT_NEAR(s.noise_rate, (0.5 / 6.5 + 0.1 / 6.5) / 4.0, 1e-9);
  EXPECT_EQ(s.samples, 4u);
}

TEST(Metrics, ZeroLengthIterationsYieldZeroRate) {
  // A zero-work FWQ quantum produces a legitimate all-zero trace; Eq. 2
  // normalizes by T_min, so the rate is undefined there and must come
  // back as zero instead of aborting the process.
  const std::vector<SimTime> zeros(8, SimTime::zero());
  const NoiseStats s = compute_noise_stats(zeros);
  EXPECT_EQ(s.t_min, SimTime::zero());
  EXPECT_EQ(s.t_max, SimTime::zero());
  EXPECT_EQ(s.max_noise_length, SimTime::zero());
  EXPECT_DOUBLE_EQ(s.noise_rate, 0.0);
  EXPECT_EQ(s.samples, 8u);
  // T_min == 0 with nonzero spread: still finite, rate reported as zero.
  const std::vector<SimTime> mixed{SimTime::zero(), 1_ms};
  const NoiseStats m = compute_noise_stats(mixed);
  EXPECT_EQ(m.max_noise_length, 1_ms);
  EXPECT_DOUBLE_EQ(m.noise_rate, 0.0);
  EXPECT_EQ(m.samples, 2u);
}

TEST(Metrics, NoiseLengthSeries) {
  const std::vector<SimTime> ts{7_ms, 6_ms, 8_ms};
  const auto ls = noise_lengths(ts);
  ASSERT_EQ(ls.size(), 3u);
  EXPECT_EQ(ls[0], 1_ms);
  EXPECT_EQ(ls[1], SimTime::zero());
  EXPECT_EQ(ls[2], 2_ms);
}

TEST(Metrics, Eq1ReproducesPaperExample) {
  // §2: N = 100,000 threads, S = 250 us, one noise group with L = 1 ms and
  // I = 500 s slows the application by ~20%.
  const NoiseGroup g{.length = 1_ms, .interval = 500_s};
  const double delay =
      bsp_noise_delay(std::span(&g, 1), SimTime::us(250), 100'000);
  EXPECT_NEAR(delay, 0.20, 0.05);
}

TEST(Metrics, HitProbabilitySaturatesAtFugakuScale) {
  // §6.3: with N = 7,630,848 even a once-per-600 s noise hits some thread
  // within a sync interval with probability ~1.
  const double p = hit_probability(SimTime::us(250), 600_s, 7'630'848);
  EXPECT_GT(p, 0.95);
}

TEST(Metrics, HitProbabilityMonotoneInThreads) {
  double prev = 0.0;
  for (std::uint64_t n : {10u, 100u, 1000u, 10000u}) {
    const double p = hit_probability(1_ms, 10_s, n);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(hit_probability(10_s, 1_s, 3), 1.0);  // S >= I
}

TEST(DurationDist, ConstantWhenSigmaZero) {
  DurationDist d{.median = 50_us, .sigma = 0.0, .min = SimTime::zero(),
                 .max = 1_ms};
  RngStream rng(Seed{1}, 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 50_us);
  EXPECT_EQ(d.mean(), 50_us);
}

TEST(DurationDist, RespectsClampAndMedian) {
  DurationDist d{.median = 50_us, .sigma = 0.7, .min = 10_us, .max = 200_us};
  RngStream rng(Seed{2}, 0);
  int below_median = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const SimTime v = d.sample(rng);
    EXPECT_GE(v, 10_us);
    EXPECT_LE(v, 200_us);
    if (v < 50_us) ++below_median;
  }
  // Median preserved within sampling error (clamping distorts slightly).
  EXPECT_NEAR(double(below_median) / n, 0.5, 0.06);
}

// sample_max as a plain loop: the max of k draws up to 64, the inverse
// CDF of U^(1/k) above.
SimTime reference_sample_max(const DurationDist& d, std::uint64_t k,
                             RngStream& rng) {
  if (k == 0) return SimTime::zero();
  if (k > 64) {
    const double u = std::clamp(rng.uniform(), 1e-12, 1.0 - 1e-12);
    return d.quantile(std::exp(std::log(u) / static_cast<double>(k)));
  }
  SimTime worst = SimTime::zero();
  for (std::uint64_t i = 0; i < k; ++i) worst = std::max(worst, d.sample(rng));
  return worst;
}

// The streams are in the same place, a cached Box-Muller half included.
void expect_same_position(RngStream& a, RngStream& b) {
  EXPECT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

const DurationDist kLognormal{.median = 150_us, .sigma = 0.5,
                              .min = SimTime::zero(), .max = 1_ms};

TEST(DurationDist, HoistedLogMedianGivesTheSameDraws) {
  const double mu =
      std::log(static_cast<double>(kLognormal.median.count_ns()));
  EXPECT_EQ(kLognormal.log_median(), mu);
  RngStream a(Seed{7}, 1);
  RngStream b(Seed{7}, 1);
  // An odd count leaves one Box-Muller half cached in each stream.
  for (int i = 0; i < 1001; ++i) {
    ASSERT_EQ(kLognormal.sample(a, mu), kLognormal.sample(b));
  }
  expect_same_position(a, b);
}

TEST(DurationDist, SampleMaxMatchesReferenceLoop) {
  for (const std::uint64_t k : {0, 1, 2, 63, 64, 65}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    RngStream a(Seed{8}, k);
    RngStream b(Seed{8}, k);
    for (int rep = 0; rep < 20; ++rep) {
      ASSERT_EQ(kLognormal.sample_max(k, a),
                reference_sample_max(kLognormal, k, b));
    }
    expect_same_position(a, b);
  }
}

TEST(DurationDist, DrawsMatchRecordedBits) {
  // FNV-1a over the little-endian bytes of each draw, recorded with a
  // log(median) per draw.
  std::uint64_t digest = kFnv1a64Offset;
  const auto fold = [&digest](std::uint64_t word) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(word >> (8 * i));
    digest = fnv1a64(std::string_view(bytes, 8), digest);
  };
  RngStream rng(Seed{7}, 3);
  for (int i = 0; i < 1000; ++i) {
    fold(static_cast<std::uint64_t>(kLognormal.sample(rng).count_ns()));
  }
  for (const std::uint64_t k : {0, 1, 2, 63, 64, 65, 1000}) {
    fold(static_cast<std::uint64_t>(kLognormal.sample_max(k, rng).count_ns()));
  }
  fold(rng.next_u64());
  EXPECT_EQ(digest, 0x11524d03db752c90ull);
}

TEST(AnalyticSampler, QuietProfileReturnsExactQuantum) {
  AnalyticNoiseProfile p;
  AnalyticNodeSampler s(p, 48, RngStream(Seed{3}, 0));
  EXPECT_EQ(s.sample_iteration(SimTime::from_ms(6.5)), SimTime::from_ms(6.5));
  EXPECT_EQ(s.sample_rank_delay(1_ms, 48), SimTime::zero());
}

TEST(AnalyticSampler, PerCoreSourceMeanMatchesAnalyticRate) {
  AnalyticNoiseProfile p;
  p.sources.push_back(NoiseSourceSpec{
      .name = "s",
      .kind = SourceKind::kHardware,
      .scope = SourceScope::kPerCore,
      .mean_interval = 100_ms,
      .duration = DurationDist{.median = 50_us, .sigma = 0.0,
                               .min = SimTime::zero(), .max = 1_ms}});
  AnalyticNodeSampler s(p, 48, RngStream(Seed{4}, 0));
  const SimTime q = SimTime::from_ms(6.5);
  double total_extra_us = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    total_extra_us += (s.sample_iteration(q) - q).to_us();
  }
  // Expected extra per iteration: (6.5ms/100ms) * 50us = 3.25 us.
  EXPECT_NEAR(total_extra_us / n, 3.25, 0.3);
}

TEST(AnalyticSampler, PerNodeScopeDividesRateAcrossCores) {
  AnalyticNoiseProfile p;
  p.sources.push_back(NoiseSourceSpec{
      .name = "daemon",
      .kind = SourceKind::kDaemon,
      .scope = SourceScope::kPerNodeRandomCore,
      .mean_interval = 100_ms,
      .duration = DurationDist{.median = 50_us, .sigma = 0.0,
                               .min = SimTime::zero(), .max = 1_ms}});
  AnalyticNodeSampler s(p, 10, RngStream(Seed{5}, 0));
  const SimTime q = SimTime::from_ms(6.5);
  double total_extra_us = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    total_extra_us += (s.sample_iteration(q) - q).to_us();
  }
  // Per-core rate is 1/10th of the node rate: 0.325 us per iteration.
  EXPECT_NEAR(total_extra_us / n, 0.325, 0.08);
}

TEST(AnalyticSampler, NodeFractionGatesStragglers) {
  AnalyticNoiseProfile p;
  p.sources.push_back(NoiseSourceSpec{
      .name = "straggler",
      .kind = SourceKind::kDaemon,
      .scope = SourceScope::kPerNodeRandomCore,
      .mean_interval = 1_s,
      .duration = DurationDist{.median = 1_ms, .sigma = 0.0,
                               .min = SimTime::zero(), .max = 10_ms},
      .node_fraction = 0.25});
  int with = 0;
  const int nodes = 2000;
  for (int i = 0; i < nodes; ++i) {
    AnalyticNodeSampler s(p, 8, RngStream(Seed{6}, std::uint64_t(i)));
    if (!s.active_sources().empty()) ++with;
  }
  EXPECT_NEAR(double(with) / nodes, 0.25, 0.04);
}

TEST(AnalyticSampler, RankDelayGrowsWithThreadCount) {
  AnalyticNoiseProfile p = fugaku_linux_profile(Countermeasures{
      .bind_daemons = false});  // noisy profile
  double small = 0;
  double large = 0;
  AnalyticNodeSampler s1(p, 48, RngStream(Seed{7}, 1));
  AnalyticNodeSampler s2(p, 48, RngStream(Seed{7}, 2));
  for (int i = 0; i < 5000; ++i) {
    small += s1.sample_rank_delay(10_ms, 1).to_us();
    large += s2.sample_rank_delay(10_ms, 48).to_us();
  }
  EXPECT_GT(large, small * 4);
}

TEST(Profiles, BaselineQuieterThanAnyDisabledCountermeasure) {
  const auto base = fugaku_linux_profile(Countermeasures{});
  const auto no_daemons =
      fugaku_linux_profile(Countermeasures{.bind_daemons = false});
  EXPECT_LT(base.sources.size(), no_daemons.sources.size());

  // Estimate noise rates analytically: the daemon-unbound config must be
  // orders of magnitude noisier (Table 2: 3.79e-6 vs 9.94e-4).
  auto rate = [](const AnalyticNoiseProfile& p) {
    AnalyticNodeSampler s(p, 48, RngStream(Seed{8}, 0));
    const SimTime q = SimTime::from_ms(6.5);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += (s.sample_iteration(q) - q).ratio(q);
    }
    return sum / n;
  };
  const double r_base = rate(base);
  const double r_daemons = rate(no_daemons);
  EXPECT_LT(r_base, 3e-5);
  EXPECT_GT(r_daemons, 1e-4);
  EXPECT_GT(r_daemons, r_base * 20);
}

TEST(Profiles, McKernelProfilesQuieterThanLinux) {
  auto max_dur = [](const AnalyticNoiseProfile& p) {
    SimTime m = SimTime::zero();
    for (const auto& s : p.sources) m = std::max(m, s.duration.max);
    return m;
  };
  EXPECT_LT(max_dur(fugaku_mckernel_profile()),
            max_dur(fugaku_linux_profile()));
  EXPECT_LT(max_dur(ofp_mckernel_profile()), max_dur(ofp_linux_profile()));
  // OFP Linux is the jitteriest environment of the study (Fig. 4a).
  EXPECT_GT(max_dur(ofp_linux_profile()), 10_ms);
}

// ---- FWQ machinery on the DES ----

TEST(Fwq, RecordsConfiguredIterations) {
  test::MultiKernelNode node;
  FwqConfig cfg;
  cfg.work_quantum = 1_ms;
  cfg.iterations = 50;
  const auto traces =
      noise::run_fwq(*node.lwk, test::one_core(node.topo, 2), cfg);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].core, 2);
  EXPECT_EQ(traces[0].iteration_times.size(), 50u);
  for (const SimTime t : traces[0].iteration_times) EXPECT_EQ(t, 1_ms);
}

TEST(Fwq, DesAndAnalyticAgreeOnPerCoreSource) {
  // One deterministic per-core stall source; run the node DES and the
  // analytic sampler with the same parameters and compare noise rates.
  AnalyticNoiseProfile p;
  p.sources.push_back(NoiseSourceSpec{
      .name = "hw",
      .kind = SourceKind::kHardware,
      .scope = SourceScope::kPerCore,
      .mean_interval = 20_ms,
      .duration = DurationDist{.median = 30_us, .sigma = 0.0,
                               .min = SimTime::zero(), .max = 30_us}});

  test::LinuxNode node([&](linuxk::LinuxConfig& c) { c.profile = p; });
  FwqConfig cfg;
  cfg.work_quantum = SimTime::from_ms(6.5);
  cfg.iterations = 600;
  const auto traces =
      noise::run_fwq(*node.kernel, node.topo.application_cores(), cfg);
  const auto des = compute_noise_stats(traces);

  AnalyticNodeSampler sampler(p, 6, RngStream(Seed{9}, 0));
  std::vector<SimTime> synth;
  synth.reserve(3600);
  for (int i = 0; i < 3600; ++i) {
    synth.push_back(sampler.sample_iteration(cfg.work_quantum));
  }
  const auto ana = compute_noise_stats(synth);

  // Same order of magnitude (both are stochastic; the DES adds residual
  // ticks worth < 1e-6).
  EXPECT_NEAR(des.noise_rate, ana.noise_rate, ana.noise_rate * 0.5 + 1e-6);
  EXPECT_NEAR(des.max_noise_length.to_us(), ana.max_noise_length.to_us(),
              35.0);
}

}  // namespace
}  // namespace hpcos::noise
