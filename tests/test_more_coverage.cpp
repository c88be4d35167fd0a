// Additional coverage: proxy serialization, scheduler stickiness, Linux
// sleep/syscall timing, hugeTLBfs process preference, and assorted edges
// surfaced while building the benches.
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "net/fabric.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using test::LinuxNode;
using test::MultiKernelNode;
using test::spawn_script;

TEST(ProxySerialization, SameProcessRequestsShareOneProxyFifo) {
  MultiKernelNode node;
  // Two threads of ONE LWK process issue offloaded calls concurrently.
  const os::Pid pid = node.lwk->create_process(os::ProcessAttrs{});
  int completed = 0;
  for (int i = 0; i < 2; ++i) {
    spawn_script(
        *node.lwk,
        [&, phase = 0](os::ThreadContext& ctx) mutable {
          if (phase++ == 0) {
            ctx.invoke(os::Syscall::kStat);
            return true;
          }
          ++completed;
          return false;
        },
        os::SpawnAttrs{.pid = pid,
                       .affinity = test::one_core(node.topo, 2 + i)});
  }
  node.sim.run_until(1_s);
  EXPECT_EQ(completed, 2);
  // One process -> one proxy; its queue serialized both calls.
  EXPECT_EQ(node.offloader->proxy_count(), 1u);
  EXPECT_EQ(node.offloader->replies(), 2u);
}

TEST(ProxySerialization, BacklogDrainsInOrderUnderBurst) {
  MultiKernelNode node;
  const os::Pid pid = node.lwk->create_process(os::ProcessAttrs{});
  std::vector<int> completion_order;
  for (int i = 0; i < 4; ++i) {
    spawn_script(
        *node.lwk,
        [&, i, phase = 0](os::ThreadContext& ctx) mutable {
          if (phase++ == 0) {
            ctx.invoke(os::Syscall::kWrite, os::SyscallArgs{.arg0 = 64});
            return true;
          }
          completion_order.push_back(i);
          return false;
        },
        os::SpawnAttrs{.pid = pid,
                       .affinity = test::one_core(node.topo, 2 + i)});
  }
  node.sim.run_until(1_s);
  // FIFO through one proxy: completions come back in submission order
  // (threads were spawned, and thus dispatched, in index order).
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(LinuxSyscalls, NanosleepWallTimeIncludesRequestedDelay) {
  LinuxNode node;
  SimTime woke;
  int phase = 0;
  spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kNanosleep,
                 os::SyscallArgs{.arg0 = 5'000'000});  // 5 ms
      return true;
    }
    woke = ctx.now();
    return false;
  });
  node.sim.run_until(1_s);
  EXPECT_GE(woke, 5_ms);
  EXPECT_LT(woke, SimTime::from_ms(5.2));
}

TEST(LinuxSyscalls, GettimeofdayIsVdsoCheap) {
  LinuxNode node;
  SimTime done;
  int phase = 0;
  spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kGetTimeOfDay);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  EXPECT_LT(done, 1_us);
}

TEST(LinuxSyscalls, TofuIoctlPricedByPinning) {
  LinuxNode node;
  SimTime small_done, large_done;
  int p1 = 0;
  spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    if (p1++ == 0) {
      ctx.invoke(os::Syscall::kIoctl,
                 os::SyscallArgs{.arg0 = 0, .arg1 = 1ull << 20,
                                 .arg2 = os::kTofuRegisterStag});
      return true;
    }
    small_done = ctx.now();
    return false;
  });
  node.sim.run_until(1_s);
  const SimTime t0 = node.sim.now();
  int p2 = 0;
  spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    if (p2++ == 0) {
      ctx.invoke(os::Syscall::kIoctl,
                 os::SyscallArgs{.arg0 = 0, .arg1 = 64ull << 20,
                                 .arg2 = os::kTofuRegisterStag});
      return true;
    }
    large_done = ctx.now() - t0;
    return false;
  });
  node.sim.run_until(2_s);
  // 64x the buffer => ~64x the pinning work dominates.
  EXPECT_GT(large_done, small_done * 10);
}

TEST(CfsPlacement, ThreadsStickToTheirPreviousCore) {
  LinuxNode node;
  std::vector<hw::CoreId> cores_seen;
  spawn_script(*node.kernel, [&, n = 0](os::ThreadContext& ctx) mutable {
    cores_seen.push_back(ctx.core());
    if (++n >= 6) return false;
    ctx.sleep_for(3_ms);  // wake -> select_core again each time
    return true;
  });
  node.sim.run_until(1_s);
  ASSERT_EQ(cores_seen.size(), 6u);
  for (std::size_t i = 1; i < cores_seen.size(); ++i) {
    EXPECT_EQ(cores_seen[i], cores_seen[0]);  // wake_affine stickiness
  }
}

TEST(LinuxMm, ProcessPreferenceSelectsHugeTlbFsPages) {
  LinuxNode node([](linuxk::LinuxConfig& c) {
    c.hugetlbfs = linuxk::HugeTlbFsConfig{.enabled = true,
                                          .page_size = hw::PageSize::k2M,
                                          .reserved_pages = 0,
                                          .overcommit = true};
  });
  // Process created with the Fugaku runtime's large-page preference: its
  // plain mmaps (no explicit flag) get hugeTLBfs backing.
  os::ProcessAttrs attrs;
  attrs.preferred_page_size = hw::PageSize::k2M;
  const os::Pid pid = node.kernel->create_process(std::move(attrs));
  int phase = 0;
  spawn_script(
      *node.kernel,
      [&](os::ThreadContext& ctx) {
        if (phase++ == 0) {
          ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 8ull << 20});
          return true;
        }
        // Stay alive: process exit would return the backing pages.
        ctx.sleep_for(100_ms);
        return true;
      },
      os::SpawnAttrs{.pid = pid});
  node.sim.run_until(50_ms);
  const auto& areas = node.kernel->process(pid).address_space.areas();
  ASSERT_EQ(areas.size(), 1u);
  EXPECT_EQ(areas.begin()->second.page_size, hw::PageSize::k2M);
  EXPECT_EQ(node.kernel->hugetlbfs().surplus_in_use(), 4u);
}

TEST(LinuxSignals, KillWakesBlockedSleeperWithEintr) {
  LinuxNode node;
  os::SyscallResult res;
  int phase = 0;
  const auto tid = spawn_script(*node.kernel, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kFutex, os::SyscallArgs{.arg0 = 0});
      return true;
    }
    res = ctx.last_syscall();
    return false;
  });
  // A second thread delivers the signal through the kill() syscall.
  spawn_script(*node.kernel, [&, p2 = 0](os::ThreadContext& ctx) mutable {
    if (p2++ == 0) {
      ctx.sleep_for(5_ms);
      return true;
    }
    if (p2 == 2) {
      ctx.invoke(os::Syscall::kKill, os::SyscallArgs{.arg0 = tid});
      return true;
    }
    return false;
  });
  node.sim.run_until(1_s);
  EXPECT_FALSE(node.kernel->thread_alive(tid));
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.value, -4);  // EINTR
}

TEST(FabricParams, FactoryMatchesKind) {
  EXPECT_EQ(net::make_tofud_params().kind, hw::InterconnectKind::kTofuD);
  EXPECT_EQ(net::make_omnipath_params().kind,
            hw::InterconnectKind::kOmniPath);
  // Tofu's barrier-gate-friendly software overhead is lower.
  EXPECT_LT(net::make_tofud_params().sw_overhead,
            net::make_omnipath_params().sw_overhead);
}

TEST(KernelEdge, WakeOnDeadThreadIsSafe) {
  MultiKernelNode node;
  const auto tid = spawn_script(*node.lwk, [](os::ThreadContext&) {
    return false;
  });
  node.sim.run_until(1_ms);
  ASSERT_FALSE(node.lwk->thread_alive(tid));
  node.lwk->wake(tid);           // no-op
  node.lwk->wake(999999);        // unknown tid: no-op
  node.lwk->send_signal(tid);    // no-op on exited thread
  node.sim.run_until(2_ms);
  SUCCEED();
}

TEST(KernelEdge, InterruptOnIdleCoreDelaysNextDispatch) {
  MultiKernelNode node;
  // Core 3 idle; a 1 ms interrupt arrives, then a thread spawns: it must
  // wait for the IRQ to finish.
  node.lwk->interrupt_core(3, 1_ms, sim::TraceCategory::kIrq, "pre");
  SimTime started;
  spawn_script(
      *node.lwk,
      [&](os::ThreadContext& ctx) {
        started = ctx.now();
        return false;
      },
      os::SpawnAttrs{.affinity = test::one_core(node.topo, 3)});
  node.sim.run_until(1_s);
  EXPECT_GE(started, 1_ms);
}

}  // namespace
}  // namespace hpcos
