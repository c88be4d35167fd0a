// Unit tests: address spaces and the core kernel execution machinery
// (exercised through the concrete McKernel/LinuxKernel, which is how the
// machinery is always used).
#include <gtest/gtest.h>

#include <vector>

#include "kernel_test_util.h"
#include "linuxk/cfs_scheduler.h"
#include "mckernel/lwk_scheduler.h"
#include "oskernel/address_space.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using test::MultiKernelNode;
using test::ScriptBody;
using test::spawn_script;

// ---- AddressSpace ----

TEST(AddressSpace, PrePopulateFaultsUpFront) {
  os::AddressSpace as;
  const auto addr = as.map(4 << 20, hw::PageSize::k2M,
                           os::PagingPolicy::kPrePopulate);
  const os::VmArea& area = as.areas().at(addr);
  EXPECT_EQ(area.total_pages(), 2u);
  EXPECT_EQ(area.populated_pages, 2u);
}

TEST(AddressSpace, UnmapReportsFlushesForResidentPagesOnly) {
  os::AddressSpace as;
  // A demand mapping populates nothing at map time: no page to flush.
  const auto demand =
      as.map(8 << 20, hw::PageSize::k2M, os::PagingPolicy::kDemand);
  EXPECT_EQ(as.areas().at(demand).populated_pages, 0u);
  const auto r = as.unmap(demand, 8 << 20);
  EXPECT_EQ(r.pages_released, 4u);
  EXPECT_EQ(r.tlb_flushes, 0u);
  // A populated one flushes every page it releases.
  const auto populated =
      as.map(8 << 20, hw::PageSize::k2M, os::PagingPolicy::kPrePopulate);
  const auto r2 = as.unmap(populated, 8 << 20);
  EXPECT_EQ(r2.pages_released, 4u);
  EXPECT_EQ(r2.tlb_flushes, 4u);
  EXPECT_EQ(as.area_count(), 0u);
}

TEST(AddressSpace, PartialUnmapShrinksArea) {
  os::AddressSpace as;
  const auto addr = as.map(4 * 64 * 1024, hw::PageSize::k64K,
                           os::PagingPolicy::kPrePopulate);
  const auto r = as.unmap(addr, 2 * 64 * 1024);
  EXPECT_EQ(r.pages_released, 2u);
  EXPECT_EQ(r.tlb_flushes, 2u);
  ASSERT_EQ(as.area_count(), 1u);
  // The remainder starts where the unmapped prefix ended and stays
  // resident.
  const os::VmArea& rest = as.areas().at(addr + 2 * 64 * 1024);
  EXPECT_EQ(rest.length, 2u * 64 * 1024);
  EXPECT_EQ(rest.populated_pages, 2u);
}

TEST(AddressSpace, MisuseThrows) {
  os::AddressSpace as;
  const auto addr =
      as.map(64 * 1024, hw::PageSize::k64K, os::PagingPolicy::kDemand);
  EXPECT_THROW(as.unmap(addr + 1, 64), SimError);
  EXPECT_THROW(as.unmap(addr, 1 << 30), SimError);
}

TEST(AddressSpace, MappingsAlignedToPageSize) {
  os::AddressSpace as;
  const auto a1 =
      as.map(1000, hw::PageSize::k64K, os::PagingPolicy::kDemand);
  const auto a2 =
      as.map(1000, hw::PageSize::k2M, os::PagingPolicy::kDemand);
  EXPECT_EQ(a1 % (64 * 1024), 0u);
  EXPECT_EQ(a2 % (2 << 20), 0u);
  EXPECT_NE(a1, a2);
}

// ---- execution machinery (on the quiet multi-kernel node's LWK) ----

TEST(KernelExec, ComputeTakesExactlyItsWork) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(5_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 5_ms);
}

TEST(KernelExec, SleepWakesOnTime) {
  MultiKernelNode node;
  std::vector<SimTime> marks;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    marks.push_back(ctx.now());
    if (marks.size() == 1) {
      ctx.sleep_for(3_ms);
      return true;
    }
    return false;
  });
  node.sim.run_until(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[1] - marks[0], 3_ms);
}

TEST(KernelExec, CooperativeRoundRobinOnOneCore) {
  MultiKernelNode node;
  const auto pin = test::one_core(node.topo, 2);
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    int remaining = 3;
    spawn_script(
        *node.lwk,
        [&, id, remaining](os::ThreadContext& ctx) mutable {
          if (remaining-- == 0) return false;
          order.push_back(id);
          ctx.compute(1_ms);
          return true;
        },
        os::SpawnAttrs{.name = "rr", .affinity = pin});
  }
  node.sim.run_until(1_s);
  // Co-operative: the first thread runs its 1 ms bursts back-to-back and
  // only a completed burst lets the other in; with compute->step->compute
  // each burst ends with a re-request, so the LWK interleaves at burst
  // granularity after the first thread's step returns... The essential
  // property: both make progress and each ran exactly 3 bursts.
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(std::count(order.begin(), order.end(), 0), 3);
  EXPECT_EQ(std::count(order.begin(), order.end(), 1), 3);
}

TEST(KernelExec, InterruptExtendsRunningBurst) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  node.lwk->interrupt_core(2, 500_us, sim::TraceCategory::kIrq, "test-irq");
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 500_us);
  EXPECT_EQ(node.lwk->accounting(2).interrupts, 1u);
  EXPECT_EQ(node.lwk->accounting(2).kernel, 500_us);
}

TEST(KernelExec, NestedInterruptsAccumulate) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  node.lwk->interrupt_core(2, 400_us, sim::TraceCategory::kIrq, "a");
  node.sim.run_until(SimTime::from_ms(1.2));  // still inside irq
  node.lwk->interrupt_core(2, 300_us, sim::TraceCategory::kIrq, "b");
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 700_us);
}

TEST(KernelExec, StallInflatesWallTimeWithoutKernelTime) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(2_ms);
  node.lwk->stall_core(2, 200_us, sim::TraceCategory::kUser, "tlbi-victim");
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 200_us);
  EXPECT_EQ(node.lwk->accounting(2).stall, 200_us);
  EXPECT_EQ(node.lwk->accounting(2).kernel, SimTime::zero());
}

TEST(KernelExec, StallOnIdleCoreIsNoop) {
  MultiKernelNode node;
  node.lwk->stall_core(3, 1_ms, sim::TraceCategory::kUser, "x");
  EXPECT_EQ(node.lwk->accounting(3).stall, SimTime::zero());
}

TEST(KernelExec, StallAllExceptSkipsInitiator) {
  MultiKernelNode node;
  std::vector<SimTime> dones(2);
  for (int i = 0; i < 2; ++i) {
    spawn_script(
        *node.lwk,
        [&, i](os::ThreadContext& ctx) {
          if (ctx.now().is_zero()) {
            ctx.compute(10_ms);
            return true;
          }
          dones[static_cast<std::size_t>(i)] = ctx.now();
          return false;
        },
        os::SpawnAttrs{.affinity = test::one_core(node.topo, 2 + i)});
  }
  node.sim.run_until(1_ms);
  node.lwk->stall_all_cores_except(2, 100_us, sim::TraceCategory::kUser,
                                   "bcast");
  node.sim.run_until(1_s);
  EXPECT_EQ(dones[0], 10_ms);            // initiator unaffected
  EXPECT_EQ(dones[1], 10_ms + 100_us);   // victim stalled
}

TEST(KernelExec, AccountingSplitsUserAndKernel) {
  MultiKernelNode node;
  int phase = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase == 0) {
      ++phase;
      ctx.compute(4_ms);
      return true;
    }
    if (phase == 1) {
      ++phase;
      ctx.invoke(os::Syscall::kGetTimeOfDay);
      return true;
    }
    return false;
  });
  node.sim.run_until(1_s);
  const auto& acct = node.lwk->accounting(2);
  EXPECT_EQ(acct.user, 4_ms);
  // gettimeofday: local cost + trap.
  EXPECT_EQ(acct.kernel, node.lwk->config().local_syscall_cost +
                             node.lwk->config().costs.syscall_trap);
}

TEST(KernelExec, ThreadAndProcessLifecycle) {
  MultiKernelNode node;
  const auto tid = spawn_script(*node.lwk, [](os::ThreadContext&) {
    return false;  // exit immediately
  });
  EXPECT_TRUE(node.lwk->thread_alive(tid));
  node.sim.run_until(1_ms);
  EXPECT_FALSE(node.lwk->thread_alive(tid));
  EXPECT_EQ(node.lwk->live_thread_count(), 0u);
  EXPECT_EQ(node.lwk->thread(tid).state, os::ThreadState::kExited);
}

TEST(KernelExec, AffinityRestrictsPlacement) {
  MultiKernelNode node;
  const auto pin = test::one_core(node.topo, 5);
  hw::CoreId ran_on = hw::kInvalidCore;
  spawn_script(
      *node.lwk,
      [&](os::ThreadContext& ctx) {
        ran_on = ctx.core();
        return false;
      },
      os::SpawnAttrs{.affinity = pin});
  node.sim.run_until(1_ms);
  EXPECT_EQ(ran_on, 5);
}

TEST(KernelExec, SpawnWithBadAffinityThrows) {
  MultiKernelNode node;
  // Core 0 is a Linux/system core; the LWK does not own it.
  EXPECT_THROW(
      spawn_script(*node.lwk, [](os::ThreadContext&) { return false; },
                   os::SpawnAttrs{.affinity = test::one_core(node.topo, 0)}),
      SimError);
}

TEST(KernelExec, RejectedSpawnLeavesNoProcessOrThread) {
  MultiKernelNode node;
  const auto quit = [](os::ThreadContext&) { return false; };
  // Core 0 is a Linux/system core; the LWK does not own it.
  EXPECT_THROW(
      spawn_script(*node.lwk, quit,
                   os::SpawnAttrs{.affinity = test::one_core(node.topo, 0)}),
      SimError);
  EXPECT_THROW(spawn_script(*node.lwk, quit, os::SpawnAttrs{.pid = 42}),
               SimError);
  EXPECT_FALSE(node.lwk->process_alive(1));
  EXPECT_FALSE(node.lwk->thread_alive(1));
  EXPECT_FALSE(node.lwk->thread_alive(2));
  EXPECT_THROW(node.lwk->thread(1), SimError);
  EXPECT_EQ(node.lwk->live_thread_count(), 0u);

  const os::ThreadId tid = spawn_script(*node.lwk, quit);
  EXPECT_EQ(tid, 1u);
  EXPECT_TRUE(node.lwk->process_alive(1));
  EXPECT_EQ(node.lwk->thread(tid).pid, 1u);
  node.sim.run_until(1_ms);
  EXPECT_FALSE(node.lwk->thread_alive(tid));
}

// ---- placement (Scheduler::select_core through a stub CoreLoad) ----

// Fixed per-core loads; records every core it is asked about.
class StubLoad final : public os::CoreLoad {
 public:
  explicit StubLoad(std::vector<std::size_t> loads)
      : loads_(std::move(loads)) {}
  std::size_t at(hw::CoreId core) const override {
    asked.push_back(core);
    return loads_.at(static_cast<std::size_t>(core));
  }
  mutable std::vector<hw::CoreId> asked;

 private:
  std::vector<std::size_t> loads_;
};

os::Thread thread_on(hw::CpuSet affinity, hw::CoreId core) {
  os::Thread t;
  t.affinity = std::move(affinity);
  t.core = core;
  return t;
}

linuxk::CfsScheduler make_cfs(hw::CpuSet owned, std::uint64_t seed) {
  const std::size_t n = owned.capacity();
  return linuxk::CfsScheduler(n, std::move(owned), hw::CpuSet(n),
                              linuxk::CfsParams{},
                              RngStream(Seed{seed}, 0));
}

TEST(Placement, PinnedLwkThreadQueriesNoCore) {
  mck::LwkScheduler lwk(8, hw::CpuSet::range(8, 2, 7));
  const StubLoad load({9, 9, 9, 9, 9, 9, 9, 9});
  EXPECT_EQ(lwk.select_core(thread_on(hw::CpuSet::of(8, {4}), 4), load), 4);
  // A wider affinity stays on the previous core too: the LWK never
  // migrates.
  EXPECT_EQ(lwk.select_core(thread_on(hw::CpuSet::all(8), 6), load), 6);
  EXPECT_TRUE(load.asked.empty());

  // A fresh thread fills the least-loaded allowed core, lowest id first,
  // asking about each allowed core once.
  const StubLoad fresh({0, 0, 2, 1, 1, 3, 1, 0});
  EXPECT_EQ(lwk.select_core(thread_on(hw::CpuSet::range(8, 1, 6),
                                      hw::kInvalidCore),
                            fresh),
            3);
  EXPECT_EQ(fresh.asked, (std::vector<hw::CoreId>{2, 3, 4, 5, 6}));
}

TEST(Placement, CfsKeepsWokenThreadUnlessItsCoreIsContended) {
  auto cfs = make_cfs(hw::CpuSet::all(8), 1);
  const hw::CpuSet aff = hw::CpuSet::of(8, {1, 4, 5, 6});
  // Load <= 1 on the previous core: stay, after one query.
  for (std::size_t here : {0u, 1u}) {
    const StubLoad load({0, 0, 0, 0, 0, here, 0, 0});
    EXPECT_EQ(cfs.select_core(thread_on(aff, 5), load), 5);
    EXPECT_EQ(load.asked, (std::vector<hw::CoreId>{5}));
  }
  // Contended: move to the lowest idle allowed core (core 2 is idle but
  // outside the affinity).
  const StubLoad busy({1, 1, 0, 1, 0, 2, 0, 0});
  EXPECT_EQ(cfs.select_core(thread_on(aff, 5), busy), 4);
  // No allowed core idle: stay.
  const StubLoad all_busy({1, 1, 0, 1, 1, 3, 2, 0});
  EXPECT_EQ(cfs.select_core(thread_on(aff, 5), all_busy), 5);
}

TEST(Placement, FreshCfsThreadDrawsOnceAmongLeastLoaded) {
  // Allowed: affinity 0-6 and owned 1-7, so cores 1-6; the least load
  // there is 1, on cores 1, 3, 4 and 6.
  auto cfs = make_cfs(hw::CpuSet::range(8, 1, 7), 99);
  RngStream reference(Seed{99}, 0);
  const StubLoad load({0, 1, 2, 1, 1, 3, 1, 0});
  const std::vector<hw::CoreId> least = {1, 3, 4, 6};
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 40; ++i) {
    const hw::CoreId got = cfs.select_core(
        thread_on(hw::CpuSet::range(8, 0, 6), hw::kInvalidCore), load);
    // Same pick as one draw on the same stream, so the two streams stay
    // in step only if select_core draws exactly once.
    ASSERT_EQ(got, least[reference.uniform_index(least.size())]) << i;
    seen[static_cast<std::size_t>(got)] = true;
  }
  EXPECT_TRUE(seen[1] && seen[3] && seen[4] && seen[6]);
  for (hw::CoreId c : load.asked) {
    EXPECT_TRUE(c >= 1 && c <= 6) << c;
  }
}

TEST(Placement, NeverOutsideAffinityAndOwned) {
  RngStream rng(Seed{5}, 0);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(70);
    hw::CpuSet owned(n);
    hw::CpuSet aff(n);
    std::vector<std::size_t> loads(n);
    for (std::size_t c = 0; c < n; ++c) {
      owned.set(static_cast<hw::CoreId>(c), rng.bernoulli(0.5));
      aff.set(static_cast<hw::CoreId>(c), rng.bernoulli(0.3));
      loads[c] = rng.uniform_index(3);
    }
    // The affinity may name un-owned cores, but must meet the owned set.
    if (!aff.intersects(owned)) continue;
    const hw::CpuSet allowed = aff & owned;
    const auto prev = static_cast<hw::CoreId>(rng.uniform_index(n + 1)) - 1;
    const StubLoad load(loads);
    auto cfs = make_cfs(owned, trial);
    mck::LwkScheduler lwk(n, owned);
    const hw::CoreId by_cfs = cfs.select_core(thread_on(aff, prev), load);
    const hw::CoreId by_lwk = lwk.select_core(thread_on(aff, prev), load);
    EXPECT_TRUE(allowed.test(by_cfs)) << trial;
    EXPECT_TRUE(allowed.test(by_lwk)) << trial;
    for (hw::CoreId c : load.asked) EXPECT_TRUE(allowed.test(c)) << trial;
  }
  // An affinity of un-owned cores only is rejected.
  auto cfs = make_cfs(hw::CpuSet::range(8, 2, 7), 1);
  mck::LwkScheduler lwk(8, hw::CpuSet::range(8, 2, 7));
  const StubLoad load(std::vector<std::size_t>(8, 0));
  const os::Thread outside = thread_on(hw::CpuSet::of(8, {0, 1}), 0);
  EXPECT_THROW(cfs.select_core(outside, load), SimError);
  EXPECT_THROW(lwk.select_core(outside, load), SimError);
}

}  // namespace
}  // namespace hpcos
