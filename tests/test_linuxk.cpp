// Unit + integration tests: the tuned-Linux model — CFS behaviours, timer
// ticks/nohz_full, cgroups, hugeTLBfs + the cgroup charge hook, virtual
// NUMA fragmentation, page-size policy, and the TLB shootdown modes.
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using test::LinuxNode;
using test::spawn_script;

// ---- cgroups ----

TEST(Cgroup, MemoryChargeRespectsLimit) {
  linuxk::MemoryCgroup cg("app", 1000);
  EXPECT_TRUE(cg.try_charge(600));
  EXPECT_TRUE(cg.try_charge(400));
  EXPECT_FALSE(cg.try_charge(1));
  EXPECT_EQ(cg.usage_bytes(), 1000u);
  cg.uncharge(500);
  EXPECT_TRUE(cg.try_charge(300));
  EXPECT_EQ(cg.usage_bytes(), 800u);
}

TEST(Cgroup, ZeroLimitMeansUnlimited) {
  linuxk::MemoryCgroup cg("system", 0);
  EXPECT_TRUE(cg.try_charge(1ull << 40));
}

// ---- hugeTLBfs ----

TEST(HugeTlbFs, PoolFirstThenSurplus) {
  linuxk::HugeTlbFsConfig cfg{.enabled = true,
                              .page_size = hw::PageSize::k2M,
                              .reserved_pages = 4,
                              .overcommit = true};
  linuxk::HugeTlbFs fs(cfg);
  auto r = fs.allocate(6, nullptr);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.from_pool, 4u);
  EXPECT_EQ(r.surplus, 2u);
  EXPECT_EQ(fs.pool_free(), 0u);
  EXPECT_EQ(fs.surplus_in_use(), 2u);
  fs.release(r, nullptr);
  EXPECT_EQ(fs.pool_free(), 4u);
  EXPECT_EQ(fs.surplus_in_use(), 0u);
}

TEST(HugeTlbFs, NoOvercommitFailsPastPool) {
  linuxk::HugeTlbFsConfig cfg{.enabled = true,
                              .page_size = hw::PageSize::k2M,
                              .reserved_pages = 2,
                              .overcommit = false};
  linuxk::HugeTlbFs fs(cfg);
  EXPECT_FALSE(fs.allocate(3, nullptr).ok);
  EXPECT_EQ(fs.pool_free(), 2u);  // failed alloc takes nothing
}

TEST(HugeTlbFs, SurplusEscapesCgroupWithoutHook) {
  // The stock-RHEL bug of §4.1.3: surplus pages are not charged.
  linuxk::HugeTlbFsConfig cfg{.enabled = true,
                              .page_size = hw::PageSize::k2M,
                              .reserved_pages = 0,
                              .overcommit = true,
                              .cgroup_charge_hook = false};
  linuxk::HugeTlbFs fs(cfg);
  linuxk::MemoryCgroup cg("app", 4ull << 20);  // limit: two 2M pages
  auto r = fs.allocate(100, &cg);              // far past the limit
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(cg.usage_bytes(), 0u);  // escaped accounting entirely
}

TEST(HugeTlbFs, ChargeHookEnforcesCgroupLimit) {
  linuxk::HugeTlbFsConfig cfg{.enabled = true,
                              .page_size = hw::PageSize::k2M,
                              .reserved_pages = 0,
                              .overcommit = true,
                              .cgroup_charge_hook = true};
  linuxk::HugeTlbFs fs(cfg);
  linuxk::MemoryCgroup cg("app", 4ull << 20);
  EXPECT_FALSE(fs.allocate(100, &cg).ok);  // over limit -> fails
  auto r = fs.allocate(2, &cg);            // exactly the limit -> ok
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(cg.usage_bytes(), 4ull << 20);
  fs.release(r, &cg);
  EXPECT_EQ(cg.usage_bytes(), 0u);
}

TEST(HugeTlbFs, MaxSurplusCap) {
  linuxk::HugeTlbFsConfig cfg{.enabled = true,
                              .page_size = hw::PageSize::k2M,
                              .reserved_pages = 0,
                              .overcommit = true,
                              .max_surplus_pages = 8};
  linuxk::HugeTlbFs fs(cfg);
  EXPECT_TRUE(fs.allocate(8, nullptr).ok);
  EXPECT_FALSE(fs.allocate(1, nullptr).ok);
}

// ---- virtual NUMA ----

TEST(VirtualNuma, SystemChurnDoesNotFragmentAppRegionWhenEnabled) {
  linuxk::VirtualNuma v(true, 8ull << 30, 2ull << 30);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(v.allocate(linuxk::MemRegion::kSystem, 64ull << 20));
    v.free(linuxk::MemRegion::kSystem, 64ull << 20);
  }
  EXPECT_GT(v.fragmentation(linuxk::MemRegion::kSystem), 0.5);
  EXPECT_DOUBLE_EQ(v.fragmentation(linuxk::MemRegion::kApplication), 0.0);
  EXPECT_DOUBLE_EQ(v.app_fault_factor(), 1.0);
}

TEST(VirtualNuma, SharedRegionFragmentsWithoutVNuma) {
  linuxk::VirtualNuma v(false, 8ull << 30, 2ull << 30);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(v.allocate(linuxk::MemRegion::kSystem, 64ull << 20));
    v.free(linuxk::MemRegion::kSystem, 64ull << 20);
  }
  EXPECT_GT(v.fragmentation(linuxk::MemRegion::kApplication), 0.2);
  EXPECT_GT(v.app_fault_factor(), 1.2);
}

TEST(VirtualNuma, CapacityEnforced) {
  linuxk::VirtualNuma v(true, 1ull << 30, 1ull << 30);
  EXPECT_TRUE(v.allocate(linuxk::MemRegion::kApplication, 1ull << 30));
  EXPECT_FALSE(v.allocate(linuxk::MemRegion::kApplication, 1));
  v.free(linuxk::MemRegion::kApplication, 1ull << 30);
  // The freed capacity is available again, all of it and no more.
  EXPECT_TRUE(v.allocate(linuxk::MemRegion::kApplication, 1ull << 30));
  EXPECT_FALSE(v.allocate(linuxk::MemRegion::kApplication, 1));
}

// ---- CFS + ticks ----

TEST(LinuxSched, DaemonWakeupPreemptsAndDelaysFwq) {
  LinuxNode node;
  // FWQ-like thread pinned to app core 2.
  SimTime done;
  int phase = 0;
  spawn_script(
      *node.kernel,
      [&](os::ThreadContext& ctx) {
        if (phase++ == 0) {
          ctx.compute(20_ms);
          return true;
        }
        done = ctx.now();
        return false;
      },
      os::SpawnAttrs{.name = "fwq", .affinity = test::one_core(node.topo, 2)});
  // Daemon pinned to the same core: sleeps 5 ms, then needs 2 ms of CPU.
  int dphase = 0;
  spawn_script(
      *node.kernel,
      [&](os::ThreadContext& ctx) {
        if (dphase++ == 0) {
          ctx.sleep_for(5_ms);
          return true;
        }
        if (dphase == 2) {
          ctx.compute(2_ms);
          return true;
        }
        return false;
      },
      os::SpawnAttrs{.name = "daemon", .affinity = test::one_core(node.topo, 2)});
  node.sim.run_until(1_s);
  // The daemon woke at 5 ms with sleeper credit, preempted the running
  // thread and burned its 2 ms; the 20 ms of work finishes >= 22 ms.
  EXPECT_GE(done, 22_ms);
  EXPECT_LT(done, 25_ms);  // and not much later (switches + ticks only)
}

TEST(LinuxSched, NohzFullResidualTickIsSmall) {
  LinuxNode node;
  noise::FwqConfig cfg;
  cfg.work_quantum = SimTime::from_ms(6.5);
  cfg.iterations = 400;  // ~2.6 s: several residual ticks at 1 Hz
  const auto traces = noise::run_fwq(
      *node.kernel, test::one_core(node.topo, 3), cfg);
  const auto stats = noise::compute_noise_stats(traces);
  // Residual tick only: max noise equals (a few) 700 ns residual ticks.
  EXPECT_GT(stats.max_noise_length, SimTime::zero());
  EXPECT_LE(stats.max_noise_length, 3_us);
  EXPECT_LT(stats.noise_rate, 1e-5);
}

TEST(LinuxSched, TickingCoreSeesPeriodicTicks) {
  // Disable nohz_full: the application core ticks at 100 Hz while busy.
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.nohz_full_cores =
        hw::CpuSet(static_cast<std::size_t>(c.nohz_full_cores.capacity()));
  });
  noise::FwqConfig cfg;
  cfg.work_quantum = SimTime::from_ms(6.5);
  cfg.iterations = 100;
  const auto traces = noise::run_fwq(
      *node.kernel, test::one_core(node.topo, 3), cfg);
  const auto stats = noise::compute_noise_stats(traces);
  // Every ~10 ms a 2 us tick lands: about 1-2 per iteration.
  EXPECT_GE(stats.max_noise_length, 2_us);
  EXPECT_GT(stats.noise_rate, 1e-4);
}

TEST(LinuxSched, TimesliceSharingOnOneCore) {
  LinuxNode node;
  // Two CPU hogs pinned to one core must both make progress (tick-driven
  // resched despite nohz_full, because two tasks are runnable).
  std::vector<SimTime> done(2);
  for (int i = 0; i < 2; ++i) {
    spawn_script(
        *node.kernel,
        [&, i, phase = 0](os::ThreadContext& ctx) mutable {
          if (phase++ == 0) {
            ctx.compute(50_ms);
            return true;
          }
          done[static_cast<std::size_t>(i)] = ctx.now();
          return false;
        },
        os::SpawnAttrs{.affinity = test::one_core(node.topo, 4)});
  }
  node.sim.run_until(2_s);
  EXPECT_GT(done[0], 50_ms);   // did not run uninterrupted
  EXPECT_GT(done[1], 90_ms);   // second finishes after ~both ran
  EXPECT_LT(done[1], 120_ms);
}

// ---- memory syscalls & page sizes ----

TEST(LinuxMm, ThpPromotesLargeRegions) {
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.thp_enabled = true;
    c.hugetlbfs.enabled = false;
    c.base_page_size = hw::PageSize::k4K;
  });
  os::Pid pid = os::kInvalidPid;
  int phase = 0;
  spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    switch (phase++) {
      case 0:
        pid = ctx.pid();
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 8ull << 20});
        return true;
      case 1:
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 64ull << 10});
        return true;
      default:
        return false;
    }
  });
  node.sim.run_until(1_s);
  const auto& areas = node.kernel->process(pid).address_space.areas();
  ASSERT_EQ(areas.size(), 2u);
  auto it = areas.begin();
  EXPECT_EQ(it->second.page_size, hw::PageSize::k2M);   // THP
  ++it;
  EXPECT_EQ(it->second.page_size, hw::PageSize::k4K);   // too small
}

TEST(LinuxMm, HugeTlbFsBackingChargedAndReleased) {
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.hugetlbfs = linuxk::HugeTlbFsConfig{.enabled = true,
                                          .page_size = hw::PageSize::k2M,
                                          .reserved_pages = 0,
                                          .overcommit = true,
                                          .cgroup_charge_hook = true};
  });
  auto& mgr = node.kernel->cgroups();
  mgr.create_memory("app", 1ull << 30);
  os::Pid pid = os::kInvalidPid;
  std::uint64_t addr = 0;
  int phase = 0;
  std::uint64_t usage_after_map = 0;
  spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    switch (phase++) {
      case 0:
        pid = ctx.pid();
        node.kernel->cgroups().assign_memory_cgroup(pid, "app");
        ctx.invoke(os::Syscall::kMmap,
                   os::SyscallArgs{.arg0 = 16ull << 20, .arg1 = 1});
        return true;
      case 1:
        addr = static_cast<std::uint64_t>(ctx.last_syscall().value);
        usage_after_map =
            node.kernel->cgroups().find_memory("app")->usage_bytes();
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = addr, .arg1 = 16ull << 20});
        return true;
      default:
        return false;
    }
  });
  node.sim.run_until(1_s);
  EXPECT_EQ(usage_after_map, 16ull << 20);  // surplus pages charged
  EXPECT_EQ(node.kernel->cgroups().find_memory("app")->usage_bytes(), 0u);
  EXPECT_EQ(node.kernel->hugetlbfs().surplus_in_use(), 0u);
}

TEST(LinuxMm, PopulatingMmapChargesFaults) {
  LinuxNode node;
  const os::Pid pid = node.kernel->create_process(
      os::ProcessAttrs{.paging = os::PagingPolicy::kPrePopulate});
  SimTime service;
  int phase = 0;
  spawn_script(
      *node.kernel,
      [&](os::ThreadContext& ctx) {
        if (phase++ == 0) {
          ctx.invoke(os::Syscall::kMmap,
                     os::SyscallArgs{.arg0 = 10ull * 64 * 1024});
          return true;
        }
        service = ctx.last_syscall().service_time;
        return false;
      },
      os::SpawnAttrs{.pid = pid});
  node.sim.run_until(1_s);
  // Ten 64K base pages populated at map time, one fault each.
  EXPECT_EQ(node.kernel->total_page_faults(), 10u);
  EXPECT_EQ(service, node.kernel->config().syscalls.get(os::Syscall::kMmap) +
                         node.kernel->costs().page_fault_base * 10 +
                         node.kernel->costs().syscall_trap);
}

// ---- TLB shootdown modes ----

// A long-running compute victim used to observe cross-core stalls.
struct VictimHandle {
  SimTime done;
};

std::shared_ptr<VictimHandle> spawn_victim(os::NodeKernel& k,
                                           const hw::NodeTopology& topo,
                                           hw::CoreId core, SimTime work) {
  auto h = std::make_shared<VictimHandle>();
  int phase = 0;
  test::spawn_script(
      k,
      [h, phase, work](os::ThreadContext& ctx) mutable {
        if (phase++ == 0) {
          ctx.compute(work);
          return true;
        }
        h->done = ctx.now();
        return false;
      },
      os::SpawnAttrs{.affinity = test::one_core(topo, core)});
  return h;
}

TEST(TlbShootdown, BroadcastStallsAllOtherCores) {
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.tlb_flush = linuxk::TlbFlushMode::kBroadcast;
  });
  auto victim = spawn_victim(*node.kernel, node.topo, 5, 10_ms);
  node.sim.run_until(1_ms);
  // 1000 flushes x 200 ns = 200 us of stall on every other core.
  auto& proc = node.kernel->process(node.kernel->thread(1).pid);
  node.kernel->tlb_shootdown(proc, /*initiator=*/2, /*flushes=*/1000);
  node.sim.run_until(1_s);
  EXPECT_EQ(victim->done, 10_ms + 200_us);
}

TEST(TlbShootdown, PatchedModeFlushesLocallyForSingleCoreProcess) {
  LinuxNode node;  // kBroadcastPatched in the quiet config
  auto victim = spawn_victim(*node.kernel, node.topo, 5, 10_ms);
  node.sim.run_until(1_ms);
  auto& proc = node.kernel->process(node.kernel->thread(1).pid);
  ASSERT_TRUE(proc.single_core());
  node.kernel->tlb_shootdown(proc, 2, 1000);
  node.sim.run_until(1_s);
  EXPECT_EQ(victim->done, 10_ms);  // no cross-core effect
}

TEST(TlbShootdown, IpiModeInterruptsProcessSiblingsOnly) {
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.tlb_flush = linuxk::TlbFlushMode::kIpi;
    c.tlb.has_broadcast_tlbi = false;
    c.tlb.ipi_shootdown_per_core = SimTime::us(3);
  });
  // Two threads of ONE process on cores 4 and 5; a bystander on core 6.
  const os::Pid pid = node.kernel->create_process(os::ProcessAttrs{});
  auto sibling = std::make_shared<VictimHandle>();
  int ph1 = 0;
  spawn_script(
      *node.kernel,
      [sibling, ph1](os::ThreadContext& ctx) mutable {
        if (ph1++ == 0) {
          ctx.compute(10_ms);
          return true;
        }
        sibling->done = ctx.now();
        return false;
      },
      os::SpawnAttrs{.pid = pid, .affinity = test::one_core(node.topo, 5)});
  int ph2 = 0;
  spawn_script(
      *node.kernel,
      [ph2](os::ThreadContext& ctx) mutable {
        if (ph2++ == 0) {
          ctx.compute(50_ms);
          return true;
        }
        return false;
      },
      os::SpawnAttrs{.pid = pid, .affinity = test::one_core(node.topo, 4)});
  auto bystander = spawn_victim(*node.kernel, node.topo, 6, 10_ms);
  node.sim.run_until(1_ms);
  node.kernel->tlb_shootdown(node.kernel->process(pid), /*initiator=*/4, 100);
  node.sim.run_until(1_s);
  EXPECT_EQ(sibling->done, 10_ms + 3_us);  // IPI'd
  EXPECT_EQ(bystander->done, 10_ms);       // different mm: untouched
}

TEST(TlbShootdown, ProcessExitTriggersTeardownStorm) {
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.tlb_flush = linuxk::TlbFlushMode::kBroadcast;
  });
  auto victim = spawn_victim(*node.kernel, node.topo, 5, 30_ms);
  // A process that maps populated memory then exits, on another core.
  const os::Pid pid = node.kernel->create_process(
      os::ProcessAttrs{.paging = os::PagingPolicy::kPrePopulate});
  int phase = 0;
  spawn_script(
      *node.kernel,
      [phase](os::ThreadContext& ctx) mutable {
        if (phase++ == 0) {
          // 64 MiB of 64K pages -> 1024 resident pages at exit.
          ctx.invoke(os::Syscall::kMmap,
                     os::SyscallArgs{.arg0 = 64ull << 20});
          return true;
        }
        if (phase == 2) {
          ctx.compute(1_ms);
          return true;
        }
        return false;
      },
      os::SpawnAttrs{.pid = pid,
                     .affinity = test::one_core(node.topo, 3)});
  node.sim.run_until(1_s);
  // Teardown broadcast: 1024 flushes x 200 ns ~= 205 us landed on the
  // victim core.
  EXPECT_GE(victim->done, 30_ms + 200_us);
  EXPECT_GT(node.kernel->total_tlb_shootdowns(), 0u);
}

}  // namespace
}  // namespace hpcos
