// Unit tests: FWQ machinery, the paper's noise metrics (Eq. 1 / Eq. 2),
// duration distributions, the analytic samplers (the FWQ campaign and the
// machine-noise sampler), the canonical profiles, and DES-vs-campaign
// consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "cluster/fwq_campaign.h"
#include "cluster/machine_noise.h"
#include "common/confighash.h"
#include "kernel_test_util.h"
#include "noise/analytic.h"
#include "noise/background.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "noise/profiles.h"
#include "test_support.h"

namespace hpcos::noise {
namespace {

using namespace hpcos::literals;

TEST(Metrics, NoiseStatsBasics) {
  const std::vector<FwqTrace> ts{
      {.iteration_times = {SimTime::from_ms(6.5), SimTime::from_ms(6.5),
                           SimTime::from_ms(7.0), SimTime::from_ms(6.6)}}};
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
  const std::vector<FwqTrace> zeros{
      {.iteration_times = std::vector<SimTime>(8, SimTime::zero())}};
  const NoiseStats s = compute_noise_stats(zeros);
  EXPECT_EQ(s.t_min, SimTime::zero());
  EXPECT_EQ(s.t_max, SimTime::zero());
  EXPECT_EQ(s.max_noise_length, SimTime::zero());
  EXPECT_DOUBLE_EQ(s.noise_rate, 0.0);
  EXPECT_EQ(s.samples, 8u);
  // T_min == 0 with nonzero spread: still finite, rate reported as zero.
  const std::vector<FwqTrace> mixed{
      {.iteration_times = {SimTime::zero(), 1_ms}}};
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

// Mean extra time per core-iteration of a campaign: with no jitter floor
// T_min is the quantum, so this is noise_rate x quantum.
double campaign_extra_us(const cluster::FwqCampaignResult& r) {
  return r.stats.noise_rate * r.stats.t_min.to_us();
}

TEST(AnalyticSampler, QuietProfileReturnsExactQuantum) {
  // No source and no jitter floor: every iteration the campaign records,
  // and so every node's worst one, is exactly the quantum.
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = 4;
  cfg.app_cores = 48;
  cfg.duration_per_core = 10_s;
  cfg.seed = Seed{3};
  const auto r = cluster::run_fwq_campaign(AnalyticNoiseProfile{}, cfg);
  const double quantum_us = cfg.work_quantum.to_us();
  EXPECT_EQ(r.stats.max_noise_length, SimTime::zero());
  EXPECT_EQ(r.cdf.observed_min(), quantum_us);
  EXPECT_EQ(r.cdf.observed_max(), quantum_us);
  ASSERT_EQ(r.worst_node_max_us.size(), 4u);
  for (const double w : r.worst_node_max_us) EXPECT_EQ(w, quantum_us);
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
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = 1;
  cfg.app_cores = 48;
  cfg.duration_per_core = cfg.work_quantum * 30000;
  cfg.seed = Seed{4};
  const auto r = cluster::run_fwq_campaign(p, cfg);
  // Expected extra per iteration: (6.5ms/100ms) * 50us = 3.25 us.
  EXPECT_NEAR(campaign_extra_us(r), 3.25, 0.3);
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
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = 1;
  cfg.app_cores = 10;
  cfg.duration_per_core = cfg.work_quantum * 30000;
  cfg.seed = Seed{5};
  const auto r = cluster::run_fwq_campaign(p, cfg);
  // Per-core rate is 1/10th of the node rate: 0.325 us per iteration.
  EXPECT_NEAR(campaign_extra_us(r), 0.325, 0.08);
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
  // A barrier waits for its worst-hit thread. On the production profile
  // the per-core sources dominate, so one node running 48 threads is hit
  // far more often per window than one running a single thread
  // (MachineNoiseSampler, the Figs. 5-7 engine).
  const AnalyticNoiseProfile p = fugaku_linux_profile();
  double small = 0;
  double large = 0;
  cluster::MachineNoiseSampler s1(p, 1, 1, RngStream(Seed{7}, 1));
  cluster::MachineNoiseSampler s2(p, 1, 48, RngStream(Seed{7}, 2));
  for (int i = 0; i < 5000; ++i) {
    small += s1.sample_global_delay(10_ms).to_us();
    large += s2.sample_global_delay(10_ms).to_us();
  }
  EXPECT_GT(large, small * 4);
}

TEST(Profiles, BaselineQuieterThanAnyDisabledCountermeasure) {
  const auto base = fugaku_linux_profile(Countermeasures{});
  const auto no_daemons =
      fugaku_linux_profile(Countermeasures{.bind_daemons = false});
  EXPECT_LT(base.sources.size(), no_daemons.sources.size());

  // The daemon-unbound config must be orders of magnitude noisier
  // (Table 2: 3.79e-6 vs 9.94e-4).
  auto rate = [](const AnalyticNoiseProfile& p) {
    cluster::FwqCampaignConfig cfg;
    cfg.nodes = 4;
    cfg.app_cores = 48;
    cfg.duration_per_core = cfg.work_quantum * 20000;
    cfg.seed = Seed{8};
    return cluster::run_fwq_campaign(p, cfg).stats.noise_rate;
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
  // Fig. 4 campaign engine with the same parameters and compare.
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

  // The same 6 cores x 600 quanta as one campaign node.
  cluster::FwqCampaignConfig campaign;
  campaign.nodes = 1;
  campaign.app_cores = 6;
  campaign.work_quantum = cfg.work_quantum;
  campaign.duration_per_core =
      cfg.work_quantum * static_cast<std::int64_t>(cfg.iterations);
  campaign.seed = Seed{9};
  const auto ana = cluster::run_fwq_campaign(p, campaign).stats;
  ASSERT_EQ(ana.samples, des.samples);

  // Same order of magnitude (both are stochastic; the DES adds residual
  // ticks worth < 1e-6).
  EXPECT_NEAR(des.noise_rate, ana.noise_rate, ana.noise_rate * 0.5 + 1e-6);

  // The campaign gives each hit its own iteration, so its longest
  // iteration carries one 30 us hit, while the DES stacks every hit that
  // lands in a quantum (EXPERIMENTS.md "Known deviations"). The DES max is
  // checked against that per-quantum model instead: Poisson(6.5/20) hits
  // of 30 us in each of the 3600 quanta.
  EXPECT_EQ(ana.max_noise_length, 30_us);
  RngStream rng(Seed{9}, 1);
  const double hits_per_quantum = cfg.work_quantum.ratio(20_ms);
  std::uint64_t most_hits = 0;
  for (std::uint64_t i = 0; i < des.samples; ++i) {
    most_hits = std::max(most_hits, rng.poisson(hits_per_quantum));
  }
  const SimTime model_max = 30_us * static_cast<std::int64_t>(most_hits);
  EXPECT_NEAR(des.max_noise_length.to_us(), model_max.to_us(), 35.0);
}

}  // namespace
}  // namespace hpcos::noise
