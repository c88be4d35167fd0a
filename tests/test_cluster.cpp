// Unit + integration tests: OS environments, machine-scale noise sampling,
// the BSP engine, SimNode assembly, and the FWQ campaign machinery.
#include <gtest/gtest.h>

#include <bit>
#include <string_view>

#include "apps/registry.h"
#include "cluster/bsp.h"
#include "cluster/fwq_campaign.h"
#include "common/check.h"
#include "common/confighash.h"
#include "cluster/machine_noise.h"
#include "cluster/node.h"
#include "cluster/osenv.h"
#include "noise/fwq.h"
#include "test_support.h"

namespace hpcos::cluster {
namespace {

using namespace hpcos::literals;

// ---- OsEnvironment ----

TEST(OsEnv, FactoriesMatchTheStudy) {
  const auto ofp_l = make_ofp_linux_env();
  const auto ofp_m = make_ofp_mckernel_env();
  const auto fug_l = make_fugaku_linux_env();
  const auto fug_m = make_fugaku_mckernel_env();

  EXPECT_EQ(ofp_l.os, OsKind::kLinux);
  EXPECT_EQ(ofp_m.os, OsKind::kMcKernel);
  // THP is partial; the LWK and hugeTLBfs reach full coverage.
  EXPECT_LT(ofp_l.mem.large_page_coverage, 1.0);
  EXPECT_DOUBLE_EQ(ofp_m.mem.large_page_coverage, 1.0);
  EXPECT_DOUBLE_EQ(fug_l.mem.large_page_coverage, 1.0);
  // Only OFP Linux releases heap blocks to the OS.
  EXPECT_EQ(ofp_l.mem.heap, os::HeapBehavior::kReleaseToOs);
  EXPECT_EQ(fug_l.mem.heap, os::HeapBehavior::kCached);
  // LWKs carry no kernel-path overhead.
  EXPECT_GT(ofp_l.mem.os_overhead, 0.0);
  EXPECT_DOUBLE_EQ(ofp_m.mem.os_overhead, 0.0);
  EXPECT_DOUBLE_EQ(fug_m.mem.os_overhead, 0.0);
  // Registration paths.
  EXPECT_EQ(fug_l.rdma_path, net::RegistrationPath::kLinuxNative);
  EXPECT_EQ(fug_m.rdma_path, net::RegistrationPath::kMcKernelPicoDriver);
  EXPECT_EQ(make_fugaku_mckernel_env(false).rdma_path,
            net::RegistrationPath::kMcKernelOffloaded);
}

TEST(OsEnv, TlbFactorReflectsCoverageAndWorkingSet) {
  const auto lin = make_ofp_linux_env();
  const auto mck = make_ofp_mckernel_env();
  const std::uint64_t ws = 1ull << 30;  // beyond the KNL 2M reach
  const double f_lin = lin.tlb_compute_factor(ws, 0.8);
  const double f_mck = mck.tlb_compute_factor(ws, 0.8);
  EXPECT_GT(f_lin, f_mck);  // partial THP coverage + kernel overhead
  // Working sets inside even the 4K reach (64 entries x 4K = 256 KiB):
  // only the kernel-overhead term remains.
  const double small = lin.tlb_compute_factor(128 << 10, 0.8);
  EXPECT_NEAR(small, 1.0 + 0.8 * lin.mem.os_overhead, 1e-9);
  // Coverage hints can only improve Linux toward the LWK, never past it.
  const double hinted = lin.tlb_compute_factor(ws, 0.8, 1.0);
  EXPECT_LE(hinted, f_lin);
  EXPECT_GE(hinted, f_mck);
}

TEST(OsEnv, ChurnAndFaultCostsScale) {
  const auto lin = make_ofp_linux_env();
  EXPECT_EQ(lin.churn_median(0), SimTime::zero());
  EXPECT_GT(lin.churn_median(256ull << 20), lin.churn_median(64ull << 20));
  EXPECT_GT(lin.fault_in(1ull << 30), lin.fault_in(1ull << 25));
  // McKernel faults are cheaper per byte.
  const auto mck = make_ofp_mckernel_env();
  EXPECT_LT(mck.fault_in(1ull << 30), lin.fault_in(1ull << 30));
}

// ---- MachineNoiseSampler ----

TEST(MachineNoise, QuietProfileProducesNoDelay) {
  MachineNoiseSampler s(noise::AnalyticNoiseProfile{}, 1024, 48,
                        RngStream(Seed{1}, 0));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(s.sample_global_delay(10_ms), SimTime::zero());
  }
}

TEST(MachineNoise, DelayGrowsWithNodeCount) {
  const auto profile = noise::ofp_linux_profile();
  auto mean_delay = [&](std::int64_t nodes) {
    MachineNoiseSampler s(profile, nodes, 256, RngStream(Seed{2}, 7));
    double sum = 0;
    for (int i = 0; i < 3000; ++i) {
      sum += s.sample_global_delay(20_ms).to_us();
    }
    return sum / 3000;
  };
  const double d16 = mean_delay(16);
  const double d8192 = mean_delay(8192);
  EXPECT_GT(d8192, d16 * 3);
}

// Mean discrete hits per window, over `windows` windows.
double mean_hits(MachineNoiseSampler& s, SimTime window, int windows) {
  double hits = 0;
  for (int i = 0; i < windows; ++i) {
    hits += static_cast<double>(
        s.sample_global_delay_attributed(window).hits);
  }
  return hits / windows;
}

TEST(MachineNoise, ExpectedRateMatchesSampledMean) {
  // One deterministic per-core source on one thread: the sampled hit
  // frequency and delay match window/interval and window/interval x
  // duration.
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "s",
      .kind = noise::SourceKind::kHardware,
      .scope = noise::SourceScope::kPerCore,
      .mean_interval = 100_ms,
      .duration = noise::DurationDist{.median = 40_us, .sigma = 0.0,
                                      .min = SimTime::zero(),
                                      .max = 40_us}});
  MachineNoiseSampler s(p, 1, 1, RngStream(Seed{3}, 0));
  double total_us = 0;
  std::uint64_t hits = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const GlobalDelaySample d = s.sample_global_delay_attributed(10_ms);
    total_us += d.delay.to_us();
    hits += d.hits;
  }
  // 10ms/100ms = 0.1 hits per window, each 40 us: mean delay 4 us.
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.01);
  EXPECT_NEAR(total_us / n, 4.0, 0.5);
}

TEST(MachineNoise, ExpectedRateAllCoresHandComputed) {
  // One kAllCores source, every node affected: one arrival per node per
  // interval, whatever the thread count per node (each arrival stalls all
  // of the node's threads at once). kPerNodeRandomCore with the same spec
  // arrives at the same per-node rate and delays one thread per arrival.
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "tlbi",
      .kind = noise::SourceKind::kTlbiStorm,
      .scope = noise::SourceScope::kAllCores,
      .mean_interval = 100_ms,
      .duration = noise::DurationDist{.median = 1_ms, .sigma = 0.0,
                                      .min = SimTime::zero(), .max = 1_ms}});
  const double per_window = 64 * (10e6 / 100e6);  // nodes x window/interval
  MachineNoiseSampler a(p, 64, 48, RngStream(Seed{11}, 0));
  EXPECT_NEAR(mean_hits(a, 10_ms, 4000), per_window, 0.03 * per_window);
  MachineNoiseSampler b(p, 64, 4, RngStream(Seed{11}, 1));
  EXPECT_NEAR(mean_hits(b, 10_ms, 4000), per_window, 0.03 * per_window);

  p.sources[0].scope = noise::SourceScope::kPerNodeRandomCore;
  MachineNoiseSampler c(p, 64, 48, RngStream(Seed{11}, 2));
  EXPECT_NEAR(mean_hits(c, 10_ms, 4000), per_window, 0.03 * per_window);
}

TEST(MachineNoise, ExpectedRateOfGatedAllCoresScalesWithFraction) {
  // Regression guard for gating: with node_fraction < 1 the hit frequency
  // must shrink with the active fraction. Dividing by active_nodes
  // instead of the node count cancels the gating and reads the ungated
  // rate.
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "gated",
      .kind = noise::SourceKind::kDaemon,
      .scope = noise::SourceScope::kAllCores,
      .mean_interval = 100_ms,
      .duration = noise::DurationDist{.median = 1_ms, .sigma = 0.0,
                                      .min = SimTime::zero(), .max = 1_ms},
      .node_fraction = 0.25});
  const double ungated = 4096 * (10e6 / 100e6);  // hits per 10 ms window
  // active_nodes ~ Poisson(1024): mean 0.25 * nodes, sd ~32 nodes.
  MachineNoiseSampler s(p, 4096, 48, RngStream(Seed{12}, 0));
  const double gated = mean_hits(s, 10_ms, 2000);
  EXPECT_NEAR(gated, 0.25 * ungated, 0.05 * ungated);
  EXPECT_LT(gated, 0.5 * ungated);
}

TEST(MachineNoise, StragglersGateOnPopulation) {
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "straggler",
      .kind = noise::SourceKind::kDaemon,
      .scope = noise::SourceScope::kPerNodeRandomCore,
      .mean_interval = 1_s,
      .duration = noise::DurationDist{.median = 2_ms, .sigma = 0.0,
                                      .min = SimTime::zero(), .max = 2_ms},
      .node_fraction = 1e-4});
  // At 100 nodes the expected straggler count is 0.01: nearly always
  // inactive. At 1M nodes it is always active.
  int active_small = 0;
  int active_large = 0;
  for (int i = 0; i < 200; ++i) {
    MachineNoiseSampler small(p, 100, 48,
                              RngStream(Seed{4}, std::uint64_t(i)));
    MachineNoiseSampler large(p, 1'000'000, 48,
                              RngStream(Seed{4}, std::uint64_t(i)));
    active_small += small.active_source_count() > 0 ? 1 : 0;
    active_large += large.active_source_count() > 0 ? 1 : 0;
  }
  EXPECT_LT(active_small, 10);
  EXPECT_EQ(active_large, 200);
}

// ---- BspEngine ----

// FNV-1a over the little-endian bytes of `word`, chained from `state`.
std::uint64_t fold(std::uint64_t state, std::uint64_t word) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(word >> (8 * i));
  return fnv1a64(std::string_view(bytes, 8), state);
}

class CalibrationWorkload final : public Workload {
 public:
  std::string name() const override { return "calibration"; }
  int iterations() const override { return 10; }
  RankWork rank_work(int, const JobConfig&,
                     const OsEnvironment&) const override {
    RankWork w;
    w.compute = SimTime::ms(10);
    w.working_set_bytes = 1 << 20;  // fits every TLB
    w.mem_bound_fraction = 0.0;     // no overhead term
    return w;
  }
};

TEST(BspEngine, DeterministicForFixedSeed) {
  const auto env = make_fugaku_mckernel_env();
  const JobConfig job{.nodes = 64, .ranks_per_node = 4,
                      .threads_per_rank = 12};
  CalibrationWorkload w;
  const auto a = BspEngine(env, job, Seed{9}).run(w);
  const auto b = BspEngine(env, job, Seed{9}).run(w);
  EXPECT_EQ(a.total, b.total);
  const auto c = BspEngine(env, job, Seed{10}).run(w);
  EXPECT_NE(c.total, a.total);
}

TEST(BspEngine, PureComputeLowerBound) {
  const auto env = make_fugaku_mckernel_env();
  const JobConfig job{.nodes = 1, .ranks_per_node = 1,
                      .threads_per_rank = 1};
  CalibrationWorkload w;
  const auto r = BspEngine(env, job, Seed{1}).run(w);
  ASSERT_EQ(r.iteration_times.size(), 10u);
  for (const SimTime t : r.iteration_times) {
    EXPECT_GE(t, SimTime::ms(10));
    EXPECT_LT(t, SimTime::ms(11));  // noise floor only
  }
}

TEST(BspEngine, NoisyLinuxSlowerAtScaleThanSmall) {
  const auto env = make_ofp_linux_env();
  CalibrationWorkload w;
  const auto small =
      BspEngine(env, JobConfig{.nodes = 4, .ranks_per_node = 16,
                               .threads_per_rank = 16},
                Seed{3})
          .run(w);
  const auto large =
      BspEngine(env, JobConfig{.nodes = 8192, .ranks_per_node = 16,
                               .threads_per_rank = 16},
                Seed{3})
          .run(w);
  EXPECT_GT(large.total, small.total);
}

class RegistrationWorkload final : public Workload {
 public:
  std::string name() const override { return "reg"; }
  int iterations() const override { return 1; }
  RankWork rank_work(int, const JobConfig&,
                     const OsEnvironment&) const override {
    RankWork w;
    w.compute = SimTime::ms(1);
    return w;
  }
  InitWork init_work(const JobConfig&, const OsEnvironment&) const override {
    InitWork i;
    i.rdma_registrations = 100;
    i.rdma_bytes_each = 64ull << 20;
    return i;
  }
};

TEST(BspEngine, RegistrationInitFollowsRdmaPath) {
  const JobConfig job{.nodes = 256, .ranks_per_node = 4,
                      .threads_per_rank = 12};
  RegistrationWorkload w;
  const auto lin =
      BspEngine(make_fugaku_linux_env(), job, Seed{5}).run(w);
  const auto pico =
      BspEngine(make_fugaku_mckernel_env(), job, Seed{5}).run(w);
  EXPECT_GT(lin.init_time, pico.init_time.scaled(5.0));
}

TEST(BspEngine, RelativePerformanceMatchesPairedRuns) {
  const JobConfig job{.nodes = 128, .ranks_per_node = 4,
                      .threads_per_rank = 12};
  CalibrationWorkload w;
  const auto rel = relative_performance(w, make_fugaku_linux_env(),
                                        make_fugaku_mckernel_env(), job,
                                        /*trials=*/5, Seed{6});
  // Pure compute and tiny working set: the environments are near-equal.
  EXPECT_NEAR(rel.mean_ratio, 1.0, 0.02);
  EXPECT_GE(rel.stddev_ratio, 0.0);
}

TEST(BspEngine, OutputsMatchRecordedBits) {
  // Exact outputs of Figs. 5-7 plan points, recorded before the engine
  // precomputed its per-RankWork terms, per-window Poisson constants and
  // the clamp threshold of its max-of-k draws. The digest is FNV-1a over
  // every iteration time and the bits of the total.
  struct Golden {
    const char* name;
    cluster::OsEnvironment env;
    const char* app;
    apps::PlatformKind platform;
    std::int64_t nodes;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      // Heap churn, the sigma = 0 residual tick and sources that clamp.
      {"lulesh_ofp_linux_8192", make_ofp_linux_env(), "Lulesh",
       apps::PlatformKind::kOfp, 8192, 0x18480a7c0dc4fbf9ull},
      {"lulesh_ofp_mckernel_8192", make_ofp_mckernel_env(), "Lulesh",
       apps::PlatformKind::kOfp, 8192, 0x613f7c27475eb515ull},
      // Straggler sources gated on the node population.
      {"gamera_fugaku_linux_8192", make_fugaku_linux_env(), "GAMERA",
       apps::PlatformKind::kFugaku, 8192, 0x534782407acbb53dull},
      // 64 ranks: the churn and imbalance maxima take k <= 64 draws, and
      // so do the rarer noise sources.
      {"geofem_fugaku_linux_16", make_fugaku_linux_env(), "GeoFEM",
       apps::PlatformKind::kFugaku, 16, 0xbd1f8fbafff8aac4ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    const auto w = apps::make_workload(g.app, g.platform);
    const auto r = BspEngine(g.env, apps::job_geometry(g.app, g.platform,
                                                       g.nodes),
                             Seed{77})
                       .run(*w);
    std::uint64_t digest = kFnv1a64Offset;
    for (const SimTime t : r.iteration_times) {
      digest = fold(digest, static_cast<std::uint64_t>(t.count_ns()));
    }
    digest = fold(digest, static_cast<std::uint64_t>(r.total.count_ns()));
    EXPECT_EQ(digest, g.digest) << std::hex << "0x" << digest;
  }
  const auto lulesh = apps::make_workload("Lulesh", apps::PlatformKind::kOfp);
  const JobConfig job =
      apps::job_geometry("Lulesh", apps::PlatformKind::kOfp, 1024);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto rel = relative_performance(
        *lulesh, make_ofp_linux_env(), make_ofp_mckernel_env(), job,
        /*trials=*/8, Seed{78}, threads);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rel.mean_ratio),
              0x3ff98714e17db777ull)
        << std::hex << "0x" << std::bit_cast<std::uint64_t>(rel.mean_ratio);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rel.stddev_ratio),
              0x3f886090b023411dull)
        << std::hex << "0x"
        << std::bit_cast<std::uint64_t>(rel.stddev_ratio);
  }
}

// ---- SimNode ----

TEST(SimNode, LinuxNodeOwnsEverything) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = SimNode::make_linux_node(
      platform, linuxk::make_fugaku_linux_config(platform));
  EXPECT_FALSE(node->is_multikernel());
  EXPECT_EQ(&node->app_kernel(), &node->linux());
  EXPECT_EQ(node->linux().owned_cores().count(), 50u);
  EXPECT_EQ(node->lwk(), nullptr);
}

TEST(SimNode, MultiKernelNodeSplitsTheChip) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults());
  EXPECT_TRUE(node->is_multikernel());
  EXPECT_EQ(&node->app_kernel(),
            static_cast<os::NodeKernel*>(node->lwk()));
  EXPECT_EQ(node->linux().owned_cores().count(), 2u);
  EXPECT_EQ(node->lwk()->owned_cores().count(), 48u);
  EXPECT_NE(node->offloader(), nullptr);
  EXPECT_NE(node->ihk_manager(), nullptr);
  EXPECT_EQ(node->ihk_manager()->instance_count(), 1u);
}

// ---- FWQ campaign ----

TEST(FwqCampaign, QuietProfileGivesExactQuanta) {
  FwqCampaignConfig cfg;
  cfg.nodes = 8;
  cfg.app_cores = 4;
  cfg.duration_per_core = 10_s;
  const auto r = run_fwq_campaign(noise::AnalyticNoiseProfile{}, cfg);
  EXPECT_EQ(r.stats.t_min, cfg.work_quantum);
  EXPECT_EQ(r.stats.t_max, cfg.work_quantum);
  EXPECT_DOUBLE_EQ(r.stats.noise_rate, 0.0);
  // 10 s / 6.5 ms = 1538 iterations per core.
  EXPECT_EQ(r.total_iterations, 8u * 4u * 1538u);
}

TEST(FwqCampaign, NoiseRateTracksAnalyticExpectation) {
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "s",
      .kind = noise::SourceKind::kHardware,
      .scope = noise::SourceScope::kPerCore,
      .mean_interval = 50_ms,
      .duration = noise::DurationDist{.median = 65_us, .sigma = 0.0,
                                      .min = SimTime::zero(),
                                      .max = 65_us}});
  FwqCampaignConfig cfg;
  cfg.nodes = 32;
  cfg.app_cores = 8;
  cfg.duration_per_core = 60_s;
  const auto r = run_fwq_campaign(p, cfg);
  // Expected rate: (6.5ms/50ms) * 65us / 6.5ms = 0.0013.
  EXPECT_NEAR(r.stats.noise_rate, 65e3 / 50e6, 2e-4);
  EXPECT_EQ(r.stats.max_noise_length, 65_us);
}

TEST(FwqCampaign, WorstNodeListSortedAndBounded) {
  const auto profile = noise::fugaku_linux_profile();
  FwqCampaignConfig cfg;
  cfg.nodes = 500;
  cfg.app_cores = 48;
  cfg.duration_per_core = 300_s;
  const auto r = run_fwq_campaign(profile, cfg);
  ASSERT_EQ(r.worst_node_max_us.size(), 100u);  // the paper's worst-100
  EXPECT_TRUE(std::is_sorted(r.worst_node_max_us.begin(),
                             r.worst_node_max_us.end(),
                             std::greater<double>()));
  EXPECT_GE(r.worst_node_max_us.front(), r.stats.t_max.to_us() - 1.0);
}

TEST(FwqCampaign, RejectsEmptyCampaign) {
  // duration shorter than the quantum used to yield an empty campaign
  // that silently reported zero noise.
  FwqCampaignConfig cfg;
  cfg.duration_per_core = 1_ms;  // < 6.5 ms quantum
  EXPECT_THROW(run_fwq_campaign(noise::AnalyticNoiseProfile{}, cfg),
               SimError);
  cfg.duration_per_core = 10_s;
  cfg.work_quantum = SimTime::zero();
  EXPECT_THROW(run_fwq_campaign(noise::AnalyticNoiseProfile{}, cfg),
               SimError);
}

TEST(FwqCampaign, RejectsDuplicateSourceNames) {
  // The ledger names each source's slot, so two sources may not share a
  // name, even where their slots (profile indices) differ.
  noise::AnalyticNoiseProfile p = noise::ofp_linux_profile();
  p.sources.push_back(p.sources.front());
  FwqCampaignConfig cfg;
  cfg.nodes = 2;
  cfg.duration_per_core = 10_s;
  EXPECT_THROW(run_fwq_campaign(p, cfg), SimError);
  p.sources.back().name += "-2";
  EXPECT_NO_THROW(run_fwq_campaign(p, cfg));
}

TEST(FwqCampaign, AllCoresScopeDelaysEveryCorePerArrival) {
  // One kAllCores source with a deterministic duration: each node-level
  // arrival lengthens every core's iteration by the same amount, so the
  // per-thread noise rate is duration/interval — NOT scaled by app_cores
  // as the old exposed_cores multiplication had it.
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "ipi",
      .kind = noise::SourceKind::kPmuRead,
      .scope = noise::SourceScope::kAllCores,
      .mean_interval = 50_ms,
      .duration = noise::DurationDist{.median = 65_us, .sigma = 0.0,
                                      .min = SimTime::zero(),
                                      .max = 65_us}});
  FwqCampaignConfig cfg;
  cfg.nodes = 32;
  cfg.app_cores = 8;
  cfg.duration_per_core = 60_s;
  const auto r = run_fwq_campaign(p, cfg);
  EXPECT_NEAR(r.stats.noise_rate, 65e3 / 50e6, 2e-4);
  EXPECT_EQ(r.stats.max_noise_length, 65_us);
}

// Constant-duration sources only: a per-core tick and a per-node daemon
// whose hits are longer than the tick's.
noise::AnalyticNoiseProfile constant_profile() {
  noise::AnalyticNoiseProfile p;
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "tick",
      .kind = noise::SourceKind::kResidualTick,
      .scope = noise::SourceScope::kPerCore,
      .mean_interval = 1_s,
      .duration = noise::DurationDist{.median = SimTime::ns(700),
                                      .max = SimTime::ns(700)}});
  p.sources.push_back(noise::NoiseSourceSpec{
      .name = "daemon",
      .kind = noise::SourceKind::kDaemon,
      .scope = noise::SourceScope::kPerNodeRandomCore,
      .mean_interval = 2_s,
      .duration = noise::DurationDist{.median = 40_us, .max = 40_us}});
  return p;
}

TEST(FwqCampaign, OutputsMatchRecordedBits) {
  // Exact outputs of small campaigns, recorded with the log-formula
  // binning and a log(median) per draw. Table binning and the hoisted
  // log(median) must reproduce every bit, at any thread count. The
  // digests are FNV-1a over every CDF bin count, the worst-node list and
  // each per-source stolen_us, hit_iterations and worst_us, as 64-bit
  // words; the per-source hit and worst digests and the timeline golden
  // were recorded before a constant-duration source's hits were added to
  // the CDF in one update. The timeline digest covers every per-source
  // series bucket, sketch bin and heatmap cell.
  struct Golden {
    const char* name;
    noise::AnalyticNoiseProfile profile;
    std::int64_t nodes;
    int app_cores;
    std::uint64_t max_materialized_hits;
    bool timeline;
    std::uint64_t noise_rate_bits;
    std::int64_t t_max_ns;
    std::uint64_t total_iterations;
    std::uint64_t cdf_digest;
    std::uint64_t worst_digest;
    std::uint64_t stolen_digest;
    std::uint64_t hits_digest;
    std::uint64_t worst_us_digest;
    std::uint64_t timeline_digest;
  };
  const Golden goldens[] = {
      {"ofp_linux", noise::ofp_linux_profile(), 64, 256, 4096, false,
       0x3f2b9bcd37cea02cull, 24000000, 756170752, 0x3cec88028a8a6c8bull,
       0x66fd46e177bddad9ull, 0x132e4bf9e79a945dull, 0x9ffd84db3ba5040aull,
       0x98c75a5d735e942aull, 0},
      {"fugaku_linux", noise::fugaku_linux_profile(), 512, 48, 256,
       false, 0x3ed43521c3ec7985ull, 7142696, 1134256128,
       0x1381ab48332acfa5ull, 0xa1eae03fb1f10b0dull, 0xc1593469e27021d5ull,
       0xa1c696b9043d9669ull, 0xc94366ea6a483ec7ull, 0},
      // Only constant sources, and a cap above every hit count: every
      // per-source worst and node maximum comes from materialized
      // constant hits, none from the bulk's max-of-k draw.
      {"constants_uncapped", constant_profile(), 64, 48, 1'000'000,
       false, 0x3eb2d381d9eae684ull, 6540000, 141782016,
       0x621187773de153adull, 0xd67c7012b7c07725ull, 0x6985b18131e91a41ull,
       0xa7707ef7f0cbf404ull, 0x4254f985b9fc5cbeull, 0},
      // The timeline draws a timestamp per materialized hit and spreads
      // the bulk beyond the cap, the residual tick's included.
      {"fugaku_linux_timeline", noise::fugaku_linux_profile(), 128, 48, 256,
       true, 0x3ed46306877d8102ull, 7062044, 283564032,
       0xc231021e9b561c20ull, 0x100d7e5ba792c052ull, 0xf5641923c4400427ull,
       0x670664cdc4c08879ull, 0x8f16e31e5ae5192cull, 0x06aeacb98c934a9cull},
  };
  for (const Golden& g : goldens) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << g.name << " threads=" << threads);
      FwqCampaignConfig cfg;
      cfg.nodes = g.nodes;
      cfg.app_cores = g.app_cores;
      cfg.duration_per_core = 300_s;
      cfg.max_materialized_hits = g.max_materialized_hits;
      cfg.timeline = g.timeline;
      cfg.threads = threads;
      const auto r = run_fwq_campaign(g.profile, cfg);
      std::uint64_t cdf = kFnv1a64Offset;
      for (std::size_t i = 0; i < r.cdf.num_bins(); ++i) {
        cdf = fold(cdf, r.cdf.bin_count(i));
      }
      std::uint64_t worst = kFnv1a64Offset;
      for (const double w : r.worst_node_max_us) {
        worst = fold(worst, std::bit_cast<std::uint64_t>(w));
      }
      std::uint64_t stolen = kFnv1a64Offset;
      std::uint64_t hits = kFnv1a64Offset;
      std::uint64_t worst_us = kFnv1a64Offset;
      for (const auto& s : r.per_source) {
        stolen = fold(stolen, std::bit_cast<std::uint64_t>(s.stolen_us));
        hits = fold(hits, s.hit_iterations);
        worst_us = fold(worst_us, std::bit_cast<std::uint64_t>(s.worst_us));
      }
      std::uint64_t timeline = kFnv1a64Offset;
      if (g.timeline) {
        for (const auto& series : r.timeline.per_source) {
          for (std::size_t i = 0; i < series.bucket_count(); ++i) {
            const auto& b = series.bucket(i);
            timeline = fold(timeline, std::bit_cast<std::uint64_t>(b.min));
            timeline = fold(timeline, std::bit_cast<std::uint64_t>(b.max));
            timeline = fold(timeline, std::bit_cast<std::uint64_t>(b.sum));
            timeline = fold(timeline, b.count);
          }
        }
        for (const auto& sketch : r.timeline.sketches) {
          for (std::size_t i = 0; i < sketch.num_bins(); ++i) {
            timeline = fold(timeline, sketch.bin_count(i));
          }
        }
        const auto& grid = r.timeline.heatmap;
        for (std::size_t row = 0; row < grid.rows(); ++row) {
          for (std::size_t col = 0; col < grid.cols(); ++col) {
            timeline = fold(
                timeline, std::bit_cast<std::uint64_t>(grid.cell(row, col)));
          }
        }
      }
      const auto hex = [](std::uint64_t v) {
        return ::testing::Message() << std::hex << "0x" << v;
      };
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.stats.noise_rate),
                g.noise_rate_bits)
          << hex(std::bit_cast<std::uint64_t>(r.stats.noise_rate));
      EXPECT_EQ(r.stats.t_max.count_ns(), g.t_max_ns);
      EXPECT_EQ(r.total_iterations, g.total_iterations);
      EXPECT_EQ(cdf, g.cdf_digest) << hex(cdf);
      EXPECT_EQ(worst, g.worst_digest) << hex(worst);
      EXPECT_EQ(stolen, g.stolen_digest) << hex(stolen);
      EXPECT_EQ(hits, g.hits_digest) << hex(hits);
      EXPECT_EQ(worst_us, g.worst_us_digest) << hex(worst_us);
      EXPECT_EQ(timeline, g.timeline ? g.timeline_digest : kFnv1a64Offset)
          << hex(timeline);
    }
  }
}

}  // namespace
}  // namespace hpcos::cluster
