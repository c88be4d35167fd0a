// Unit + integration tests: the paper's methodology tools — interference
// analysis (§4.2.1), PMU-based attribution (§4.2.2), and the batch job
// launcher (§4.1 / §5.1).
#include <gtest/gtest.h>

#include <set>

#include "cluster/job_launcher.h"
#include "kernel_test_util.h"
#include "linuxk/interference.h"
#include "noise/attribution.h"
#include "noise/fwq.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

// ---- interference analysis ----

TEST(Interference, RanksActivitiesByStolenTime) {
  sim::TraceBuffer trace(256);
  auto rec = [&](sim::TraceCategory cat, hw::CoreId core, SimTime dur,
                 SimTime at) {
    trace.record(sim::TraceRecord{.time = at, .core = core, .category = cat,
                                  .duration = dur, .label = "x"});
  };
  rec(sim::TraceCategory::kKworker, 5, 100_us, 1_ms);
  rec(sim::TraceCategory::kKworker, 6, 300_us, 2_ms);
  rec(sim::TraceCategory::kTimerTick, 5, 2_us, 3_ms);
  rec(sim::TraceCategory::kDaemon, 7, 5_ms, 4_ms);
  // Events on system cores (0, 1) must be excluded.
  rec(sim::TraceCategory::kSyscall, 0, 1_ms, 5_ms);

  const auto topo = test::small_topology();
  const auto report =
      linuxk::analyze_interference(trace, topo.application_cores());

  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.dominant(), "daemon");
  EXPECT_EQ(report.entries[0].total, 5_ms);
  EXPECT_EQ(report.entries[1].activity, "kworker");
  EXPECT_EQ(report.entries[1].events, 2u);
  EXPECT_EQ(report.entries[1].total, 400_us);
  EXPECT_EQ(report.entries[1].worst_single, 300_us);
  EXPECT_EQ(report.entries[1].worst_core, 6);
  EXPECT_EQ(report.total_interference, 5_ms + 400_us + 2_us);
  EXPECT_NE(to_string(report).find("daemon"), std::string::npos);
}

TEST(Interference, FindsTheMisconfiguredSubsystemOnTheDes) {
  // The §4.2.1 workflow end-to-end: run FWQ under a node with blk-mq
  // workers unbound, then ask the trace who is stealing time.
  const auto platform = hw::make_fugaku_testbed_platform();
  noise::Countermeasures cm;
  cm.bind_blkmq = false;
  auto cfg = linuxk::make_fugaku_linux_config(platform, cm);
  cfg.profile = noise::strip_population_tails(cfg.profile);
  // Silence the residual stall sources so blk-mq dominates clearly.
  std::erase_if(cfg.profile.sources, [](const noise::NoiseSourceSpec& s) {
    return s.kind == noise::SourceKind::kHardware ||
           s.kind == noise::SourceKind::kSar;
  });
  auto node = cluster::SimNode::make_linux_node(
      platform, std::move(cfg),
      cluster::SimNodeOptions{.seed = Seed{31}, .trace_capacity = 1 << 18});

  noise::FwqConfig fwq;
  fwq.iterations = 8000;
  noise::run_fwq(node->app_kernel(), node->topology().application_cores(),
                 fwq);
  const auto report = linuxk::analyze_interference(
      node->trace(), node->topology().application_cores());
  EXPECT_EQ(report.dominant(), "blk_mq");
}

TEST(Interference, BindingKeepsItsCategoryOffApplicationCoresOnTheDes) {
  // Table 2's path: a binding countermeasure removes its source's spec row
  // (fugaku_linux_profile(cm)), so BackgroundActivity never delivers that
  // category to a core. With the countermeasure on, no kworker or blk-mq
  // record lands on an application core; with it off, its category does.
  const auto platform = hw::make_fugaku_testbed_platform();
  const hw::CpuSet& app = platform.topology.application_cores();
  struct Landed {
    std::size_t kworker = 0;
    std::size_t blkmq = 0;
  };
  const auto run = [&](const noise::Countermeasures& cm) {
    auto cfg = linuxk::make_fugaku_linux_config(platform, cm);
    cfg.profile = noise::strip_population_tails(cfg.profile);
    auto node = cluster::SimNode::make_linux_node(
        platform, std::move(cfg),
        cluster::SimNodeOptions{.seed = Seed{31}, .trace_capacity = 1 << 18});
    noise::FwqConfig fwq;
    fwq.iterations = 8000;  // 52 s: ~13 kworker and ~9 blk-mq arrivals
    noise::run_fwq(node->app_kernel(), app, fwq);
    EXPECT_EQ(node->trace().dropped(), 0u);
    Landed landed;
    for (const auto& r : node->trace().snapshot()) {
      if (r.core == hw::kInvalidCore || !app.test(r.core)) continue;
      if (r.category == sim::TraceCategory::kKworker) ++landed.kworker;
      if (r.category == sim::TraceCategory::kBlkMq) ++landed.blkmq;
    }
    return landed;
  };
  const Landed all_on = run({});
  EXPECT_EQ(all_on.kworker, 0u);
  EXPECT_EQ(all_on.blkmq, 0u);
  const Landed kworkers_off = run({.bind_kworkers = false});
  EXPECT_GT(kworkers_off.kworker, 0u);
  EXPECT_EQ(kworkers_off.blkmq, 0u);
  const Landed blkmq_off = run({.bind_blkmq = false});
  EXPECT_EQ(blkmq_off.kworker, 0u);
  EXPECT_GT(blkmq_off.blkmq, 0u);
}

// ---- PMU attribution ----

TEST(Attribution, CleanWindowIsNone) {
  os::CoreAccounting before;
  os::CoreAccounting after = before;
  after.user += 10_ms;
  const auto r = noise::attribute_window(before, after);
  EXPECT_EQ(r.cls, noise::InterferenceClass::kNone);
  EXPECT_GT(r.counters.get(hw::PmuEvent::kInstructionsUser), 0u);
  EXPECT_EQ(r.counters.get(hw::PmuEvent::kInstructionsKernel), 0u);
}

TEST(Attribution, KernelTimeMeansOsActivity) {
  os::CoreAccounting before;
  os::CoreAccounting after;
  after.user = 10_ms;
  after.kernel = 200_us;
  after.interrupts = 3;
  const auto r = noise::attribute_window(before, after);
  EXPECT_EQ(r.cls, noise::InterferenceClass::kOsKernelActivity);
  EXPECT_EQ(r.kernel_time, 200_us);
  EXPECT_EQ(r.interrupts, 3u);
  EXPECT_GT(r.counters.get(hw::PmuEvent::kInstructionsKernel), 0u);
}

TEST(Attribution, StallOnlyMeansHardwareContention) {
  os::CoreAccounting before;
  os::CoreAccounting after;
  after.user = 10_ms;
  after.stall = 150_us;
  const auto r = noise::attribute_window(before, after);
  EXPECT_EQ(r.cls, noise::InterferenceClass::kHardwareContention);
  // The §4.2.2 signature: cycles grow, kernel instructions do not.
  EXPECT_EQ(r.counters.get(hw::PmuEvent::kInstructionsKernel), 0u);
  EXPECT_GT(r.counters.get(hw::PmuEvent::kCycles),
            r.counters.get(hw::PmuEvent::kInstructionsUser));
}

TEST(Attribution, ComparableComponentsAreMixed) {
  os::CoreAccounting before;
  os::CoreAccounting after;
  after.kernel = 100_us;
  after.stall = 80_us;
  EXPECT_EQ(noise::attribute_window(before, after).cls,
            noise::InterferenceClass::kMixed);
  // Dominant kernel with trace stall: OS activity.
  after.stall = 2_us;
  EXPECT_EQ(noise::attribute_window(before, after).cls,
            noise::InterferenceClass::kOsKernelActivity);
}

TEST(Attribution, DesRoundTrip_TlbiIsHardware_DaemonIsOs) {
  // Run the real mechanisms and check the classifier recovers them.
  test::MultiKernelNode node;
  SimTime done;
  int phase = 0;
  test::spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.compute(20_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  const auto before = node.lwk->accounting(2);
  // A broadcast TLBI storm from the Linux side stalls the LWK core.
  const os::Pid pid = node.linux->create_process(os::ProcessAttrs{});
  (void)pid;
  node.bus.broadcast_stall(0, 300_us, sim::TraceCategory::kTlbShootdown,
                           "storm");
  node.sim.run_until(10_ms);
  const auto mid = node.lwk->accounting(2);
  EXPECT_EQ(noise::attribute_window(before, mid).cls,
            noise::InterferenceClass::kHardwareContention);
  // An interrupt burst on the same core reads as OS activity.
  node.lwk->interrupt_core(2, 200_us, sim::TraceCategory::kIrq, "irq");
  node.sim.run_until(15_ms);
  const auto after = node.lwk->accounting(2);
  EXPECT_EQ(noise::attribute_window(mid, after).cls,
            noise::InterferenceClass::kOsKernelActivity);
}

// ---- job launcher ----

TEST(JobLauncher, RanksBindOneLevelPerCmg) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = cluster::SimNode::make_linux_node(
      platform, linuxk::make_fugaku_linux_config(platform));
  cluster::JobLauncher launcher(*node);
  const auto job = launcher.launch(
      cluster::LaunchSpec{.ranks = 4, .threads_per_rank = 12});

  ASSERT_EQ(job.ranks.size(), 4u);
  EXPECT_TRUE(job.used_cgroups);
  // One rank per CMG, 12 cores each, all disjoint (§4.1.4).
  std::set<hw::NumaId> numas;
  hw::CpuSet seen(static_cast<std::size_t>(node->topology().logical_cores()));
  for (const auto& r : job.ranks) {
    numas.insert(r.numa);
    EXPECT_EQ(r.cores.count(), 12u);
    EXPECT_FALSE(seen.intersects(r.cores));
    seen = seen | r.cores;
    // Rank processes carry the Fugaku runtime memory policy.
    const auto& proc = node->app_kernel().process(r.pid);
    EXPECT_EQ(proc.attrs.preferred_page_size, hw::PageSize::k2M);
    EXPECT_EQ(proc.attrs.heap, os::HeapBehavior::kCached);
  }
  EXPECT_EQ(numas.size(), 4u);
  // The memory cgroup is wired to the rank processes.
  EXPECT_NE(node->linux().cgroups().memory_cgroup_of(job.ranks[0].pid),
            nullptr);
}

TEST(JobLauncher, EightRanksSplitEachCmgInHalf) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = cluster::SimNode::make_linux_node(
      platform, linuxk::make_fugaku_linux_config(platform));
  cluster::JobLauncher launcher(*node);
  const auto job =
      launcher.launch(cluster::LaunchSpec{.ranks = 8, .threads_per_rank = 6});
  ASSERT_EQ(job.ranks.size(), 8u);
  for (const auto& r : job.ranks) {
    EXPECT_EQ(r.cores.count(), 6u);
  }
  // Ranks 0 and 4 share CMG 0 with disjoint halves.
  EXPECT_EQ(job.ranks[0].numa, job.ranks[4].numa);
  EXPECT_FALSE(job.ranks[0].cores.intersects(job.ranks[4].cores));
}

TEST(JobLauncher, MultiKernelNodeNeedsNoCgroups) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults());
  cluster::JobLauncher launcher(*node);
  const auto job = launcher.launch(cluster::LaunchSpec{.ranks = 4});
  EXPECT_FALSE(job.used_cgroups);  // the LWK replaces the cgroup (§5.1)
  // Ranks live on the LWK.
  for (const auto& r : job.ranks) {
    EXPECT_TRUE(node->lwk()->process_alive(r.pid));
  }
}

TEST(JobLauncher, SpawnedRankThreadRunsInItsSlice) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults());
  cluster::JobLauncher launcher(*node);
  const auto job = launcher.launch(cluster::LaunchSpec{.ranks = 4});

  hw::CoreId ran_on = hw::kInvalidCore;
  launcher.spawn_rank_thread(
      job, 2,
      std::make_unique<test::ScriptBody>([&](os::ThreadContext& ctx) {
        ran_on = ctx.core();
        return false;
      }),
      "rank-main");
  node->simulator().run_until(1_ms);
  EXPECT_TRUE(job.ranks[2].cores.test(ran_on));
}

TEST(JobLauncher, TooManyRanksFail) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = cluster::SimNode::make_linux_node(
      platform, linuxk::make_fugaku_linux_config(platform));
  cluster::JobLauncher launcher(*node);
  EXPECT_THROW(launcher.launch(cluster::LaunchSpec{.ranks = 500}), SimError);
}

}  // namespace
}  // namespace hpcos
