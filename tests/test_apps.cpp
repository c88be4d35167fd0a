// Unit + integration tests: application models and the headline figure
// shapes. The *Shape tests lock the paper's qualitative results in as
// regression tests: who wins, roughly by how much, and how gaps move with
// scale.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"

#include "apps/amg.h"
#include "apps/gamera.h"
#include "apps/geofem.h"
#include "apps/lqcd.h"
#include "apps/lulesh.h"
#include "apps/milc.h"
#include "apps/registry.h"
#include "cluster/bsp.h"
#include "test_support.h"

namespace hpcos::apps {
namespace {

using cluster::JobConfig;
using cluster::OsEnvironment;

double relative(const std::string& workload, PlatformKind platform,
                const OsEnvironment& lin, const OsEnvironment& mck,
                std::int64_t nodes, int trials = 3) {
  const auto w = make_workload(workload, platform);
  const auto job = job_geometry(workload, platform, nodes);
  return cluster::relative_performance(*w, lin, mck, job, trials, Seed{404})
      .mean_ratio;
}

// ---- registry ----

// The Figs. 5-7 workloads: all six on OFP; no A64FX builds of the CORAL
// apps exist (§6.2), so Fugaku runs the last three.
const std::vector<std::string> kOfpWorkloads = {
    "AMG2013", "Milc", "Lulesh", "LQCD", "GeoFEM", "GAMERA"};
const std::vector<std::string> kFugakuWorkloads = {"LQCD", "GeoFEM",
                                                   "GAMERA"};

TEST(Registry, WorkloadsPerPlatform) {
  for (const auto& name : kOfpWorkloads) {
    EXPECT_EQ(make_workload(name, PlatformKind::kOfp)->name(), name);
  }
  for (const auto& name : kFugakuWorkloads) {
    EXPECT_EQ(make_workload(name, PlatformKind::kFugaku)->name(), name);
  }
  EXPECT_THROW(make_workload("HPL", PlatformKind::kOfp), SimError);
}

TEST(Registry, JobGeometriesMatchArtifactDescription) {
  // OFP: LQCD 4x32, GeoFEM 16x8, GAMERA 8x8; Fugaku: always 4x12.
  const auto lqcd = job_geometry("LQCD", PlatformKind::kOfp, 100);
  EXPECT_EQ(lqcd.ranks_per_node, 4);
  EXPECT_EQ(lqcd.threads_per_rank, 32);
  const auto geofem = job_geometry("GeoFEM", PlatformKind::kOfp, 100);
  EXPECT_EQ(geofem.ranks_per_node, 16);
  EXPECT_EQ(geofem.threads_per_rank, 8);
  const auto gamera = job_geometry("GAMERA", PlatformKind::kOfp, 100);
  EXPECT_EQ(gamera.ranks_per_node, 8);
  EXPECT_EQ(gamera.threads_per_rank, 8);
  for (const char* name : {"LQCD", "GeoFEM", "GAMERA"}) {
    const auto job = job_geometry(name, PlatformKind::kFugaku, 100);
    EXPECT_EQ(job.ranks_per_node, 4);
    EXPECT_EQ(job.threads_per_rank, 12);
  }
  // CORAL apps use the 256 designated application CPUs.
  const auto amg = job_geometry("AMG2013", PlatformKind::kOfp, 100);
  EXPECT_EQ(amg.ranks_per_node * amg.threads_per_rank, 256);
}

TEST(Registry, LqcdVersionsDifferByPlatform) {
  // The SVE-optimized QWS runs from cache; the x86 build is memory bound.
  const auto ofp = make_workload("LQCD", PlatformKind::kOfp);
  const auto fug = make_workload("LQCD", PlatformKind::kFugaku);
  const auto job_o = job_geometry("LQCD", PlatformKind::kOfp, 4);
  const auto job_f = job_geometry("LQCD", PlatformKind::kFugaku, 4);
  const auto env_o = cluster::make_ofp_linux_env();
  const auto env_f = cluster::make_fugaku_linux_env();
  EXPECT_GT(ofp->rank_work(0, job_o, env_o).mem_bound_fraction,
            fug->rank_work(0, job_f, env_f).mem_bound_fraction);
}

// ---- per-model invariants ----

TEST(Models, RankWorkBasicInvariants) {
  const auto env = cluster::make_fugaku_linux_env();
  const JobConfig job{.nodes = 16, .ranks_per_node = 4,
                      .threads_per_rank = 12};
  for (const char* name : {"LQCD", "GeoFEM", "GAMERA"}) {
    const auto w = make_workload(name, PlatformKind::kFugaku);
    ASSERT_GT(w->iterations(), 0) << name;
    const auto rw = w->rank_work(0, job, env);
    EXPECT_GT(rw.compute, SimTime::zero()) << name;
    EXPECT_GT(rw.working_set_bytes, 0u) << name;
    EXPECT_GE(rw.mem_bound_fraction, 0.0) << name;
    EXPECT_LE(rw.mem_bound_fraction, 1.0) << name;
    // First iteration first-touches the working set; later ones don't.
    EXPECT_GT(rw.touch_bytes, 0u) << name;
    EXPECT_EQ(w->rank_work(1, job, env).touch_bytes, 0u) << name;
  }
}

TEST(Models, LuleshChurnFollowsHeapBehavior) {
  const Lulesh lulesh;
  const JobConfig job{.nodes = 16, .ranks_per_node = 16,
                      .threads_per_rank = 16};
  const auto lin = lulesh.rank_work(1, job, cluster::make_ofp_linux_env());
  const auto mck =
      lulesh.rank_work(1, job, cluster::make_ofp_mckernel_env());
  // Release-to-OS heap churns the full temporary volume; caching
  // allocators only touch arena bookkeeping.
  EXPECT_GT(lin.alloc_churn_bytes, mck.alloc_churn_bytes * 32);
}

TEST(Models, AmgVCycleSumsLevels) {
  AmgParams p;
  p.levels = 1;
  const Amg2013 one_level(p);
  p.levels = 8;
  const Amg2013 eight_levels(p);
  const JobConfig job{.nodes = 4, .ranks_per_node = 16,
                      .threads_per_rank = 16};
  const auto env = cluster::make_ofp_linux_env();
  const auto w1 = one_level.rank_work(0, job, env);
  const auto w8 = eight_levels.rank_work(0, job, env);
  // Geometric level sum: < 2x the fine level work, one allreduce/level.
  EXPECT_GT(w8.compute, w1.compute);
  EXPECT_LT(w8.compute, w1.compute.scaled(2.0));
  EXPECT_EQ(w8.allreduces, 8);
}

TEST(Models, GameraRegistrationsGrowWithRanks) {
  const Gamera g;
  const auto env = cluster::make_fugaku_linux_env();
  const auto small = g.init_work(
      JobConfig{.nodes = 128, .ranks_per_node = 4, .threads_per_rank = 12},
      env);
  const auto large = g.init_work(
      JobConfig{.nodes = 8192, .ranks_per_node = 4, .threads_per_rank = 12},
      env);
  EXPECT_GT(large.rdma_registrations, small.rdma_registrations * 3);
  EXPECT_GT(small.rdma_registrations, 0);
}

// ---- headline shapes (regression-locked paper results) ----

TEST(FigureShape, OfpMcKernelWinsEverywhere) {
  const auto lin = cluster::make_ofp_linux_env();
  const auto mck = cluster::make_ofp_mckernel_env();
  for (const auto& name : kOfpWorkloads) {
    const double r = relative(name, PlatformKind::kOfp, lin, mck, 256, 2);
    EXPECT_GT(r, 1.0) << name;
  }
}

TEST(FigureShape, OfpGainsGrowWithScale) {
  const auto lin = cluster::make_ofp_linux_env();
  const auto mck = cluster::make_ofp_mckernel_env();
  for (const char* name : {"AMG2013", "Milc", "Lulesh"}) {
    const double small = relative(name, PlatformKind::kOfp, lin, mck, 64, 2);
    const double large =
        relative(name, PlatformKind::kOfp, lin, mck, 8192, 2);
    EXPECT_GT(large, small) << name;
  }
}

TEST(FigureShape, LuleshIsTheBiggestOfpWinner) {
  const auto lin = cluster::make_ofp_linux_env();
  const auto mck = cluster::make_ofp_mckernel_env();
  const double lulesh =
      relative("Lulesh", PlatformKind::kOfp, lin, mck, 4096, 2);
  const double amg =
      relative("AMG2013", PlatformKind::kOfp, lin, mck, 4096, 2);
  const double milc = relative("Milc", PlatformKind::kOfp, lin, mck, 4096, 2);
  EXPECT_GT(lulesh, amg);
  EXPECT_GT(lulesh, milc);
  EXPECT_GT(lulesh, 1.5);  // "almost 2X" territory
}

TEST(FigureShape, FugakuLqcdNearIdentical) {
  const double r = relative("LQCD", PlatformKind::kFugaku,
                            cluster::make_fugaku_linux_env(),
                            cluster::make_fugaku_mckernel_env(), 2048, 2);
  EXPECT_NEAR(r, 1.0, 0.03);
}

TEST(FigureShape, FugakuGeoFemSmallConstantGain) {
  const auto lin = cluster::make_fugaku_linux_env();
  const auto mck = cluster::make_fugaku_mckernel_env();
  const double small = relative("GeoFEM", PlatformKind::kFugaku, lin, mck,
                                128, 2);
  const double large = relative("GeoFEM", PlatformKind::kFugaku, lin, mck,
                                8192, 2);
  EXPECT_NEAR(small, 1.03, 0.02);
  EXPECT_NEAR(large, 1.03, 0.02);
}

TEST(FigureShape, FugakuGameraGainGrowsTo29Percent) {
  const auto lin = cluster::make_fugaku_linux_env();
  const auto mck = cluster::make_fugaku_mckernel_env();
  const double small =
      relative("GAMERA", PlatformKind::kFugaku, lin, mck, 128, 2);
  const double large =
      relative("GAMERA", PlatformKind::kFugaku, lin, mck, 8192, 2);
  EXPECT_GT(large, small);
  EXPECT_NEAR(large, 1.29, 0.06);
}

TEST(FigureShape, PicoDriverIsTheGameraMechanism) {
  // Disabling the PicoDriver (registration still offloaded) erases most of
  // McKernel's GAMERA advantage — the paper's attribution (§6.4).
  const auto lin = cluster::make_fugaku_linux_env();
  const double with_pico =
      relative("GAMERA", PlatformKind::kFugaku, lin,
               cluster::make_fugaku_mckernel_env(true), 2048, 2);
  const double without_pico =
      relative("GAMERA", PlatformKind::kFugaku, lin,
               cluster::make_fugaku_mckernel_env(false), 2048, 2);
  EXPECT_GT(with_pico, without_pico);
}

TEST(FigureShape, TunedLinuxClosesTheGap) {
  // The paper's core finding: the same workload shows a much smaller LWK
  // advantage on the highly tuned Fugaku Linux than on the moderately
  // tuned OFP Linux.
  const double ofp_gap =
      relative("GeoFEM", PlatformKind::kOfp, cluster::make_ofp_linux_env(),
               cluster::make_ofp_mckernel_env(), 2048, 2) -
      1.0;
  const double fugaku_gap =
      relative("GeoFEM", PlatformKind::kFugaku,
               cluster::make_fugaku_linux_env(),
               cluster::make_fugaku_mckernel_env(), 2048, 2) -
      1.0;
  EXPECT_GT(ofp_gap, fugaku_gap);
}

}  // namespace
}  // namespace hpcos::apps
