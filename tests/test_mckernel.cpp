// Unit + integration tests: McKernel — local syscall set, delegation via
// the proxy process, PicoDriver, retained-memory pools, signals, and the
// LWK's defining noise-freedom.
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using test::MultiKernelNode;
using test::spawn_script;

TEST(McKernelSyscalls, LocalSetMatchesPaper) {
  using S = os::Syscall;
  // §5: memory management, threads, scheduling, signals are local.
  for (S s : {S::kMmap, S::kMunmap, S::kBrk, S::kFutex, S::kClone,
              S::kGetTimeOfDay, S::kSchedYield, S::kNanosleep, S::kSignal,
              S::kKill, S::kExitGroup}) {
    EXPECT_TRUE(mck::McKernel::is_local_syscall(s)) << to_string(s);
  }
  // File I/O and driver calls are delegated to Linux.
  for (S s : {S::kRead, S::kWrite, S::kOpen, S::kClose, S::kStat, S::kIoctl,
              S::kPerfEventOpen}) {
    EXPECT_FALSE(mck::McKernel::is_local_syscall(s)) << to_string(s);
  }
}

TEST(McKernelOffload, ReadIsDelegatedThroughProxy) {
  MultiKernelNode node;
  os::SyscallResult observed;
  int phase = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kRead, os::SyscallArgs{.arg0 = 4096});
      return true;
    }
    observed = ctx.last_syscall();
    return false;
  });
  node.sim.run_until(1_s);
  EXPECT_TRUE(observed.ok);
  EXPECT_EQ(observed.path, os::SyscallResult::Path::kOffloaded);
  EXPECT_EQ(node.lwk->offloaded_syscalls(), 1u);
  EXPECT_EQ(node.offloader->requests(), 1u);
  EXPECT_EQ(node.offloader->replies(), 1u);
  EXPECT_EQ(node.offloader->proxy_count(), 1u);
  // Round trip: marshal + 2x IKC + proxy wake + Linux service. Must be
  // microseconds, not nanoseconds and not milliseconds.
  EXPECT_GT(node.offloader->roundtrip_us().mean(), 1.0);
  EXPECT_LT(node.offloader->roundtrip_us().mean(), 50.0);
}

TEST(McKernelOffload, OffloadCostExceedsLocalCost) {
  MultiKernelNode node;
  SimTime local_done, offload_done;
  int phase1 = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase1++ == 0) {
      ctx.invoke(os::Syscall::kGetTimeOfDay);  // local on the LWK
      return true;
    }
    local_done = ctx.now();
    return false;
  });
  node.sim.run_until(1_s);
  int phase2 = 0;
  const SimTime t0 = node.sim.now();
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase2++ == 0) {
      ctx.invoke(os::Syscall::kStat);  // offloaded
      return true;
    }
    offload_done = ctx.now() - t0;
    return false;
  });
  node.sim.run_until(2_s);
  EXPECT_GT(offload_done, local_done * 3);
}

TEST(McKernelOffload, ProxyLivesOnSystemCores) {
  MultiKernelNode node;
  int phase = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kOpen);
      return true;
    }
    return false;
  });
  node.sim.run_until(1_s);
  ASSERT_EQ(node.offloader->proxy_count(), 1u);
  // The proxy thread must have consumed kernel time on a system core, and
  // none on any application core.
  SimTime sys_kernel, app_kernel;
  for (hw::CoreId c : node.topo.system_cores().to_vector()) {
    sys_kernel += node.linux->accounting(c).kernel;
  }
  for (hw::CoreId c : node.topo.application_cores().to_vector()) {
    app_kernel += node.linux->accounting(c).kernel;
  }
  EXPECT_GT(sys_kernel, SimTime::zero());
  EXPECT_EQ(app_kernel, SimTime::zero());
}

TEST(McKernelOffload, ConcurrentRequestsAllComplete) {
  MultiKernelNode node;
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    int phase = 0;
    spawn_script(
        *node.lwk,
        [&, phase](os::ThreadContext& ctx) mutable {
          if (phase++ == 0) {
            ctx.invoke(os::Syscall::kWrite, os::SyscallArgs{.arg0 = 128});
            return true;
          }
          ++completed;
          return false;
        },
        os::SpawnAttrs{.affinity = test::one_core(node.topo, 2 + i)});
  }
  node.sim.run_until(1_s);
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(node.offloader->replies(), 4u);
  // Four distinct LWK processes -> four proxies.
  EXPECT_EQ(node.offloader->proxy_count(), 4u);
}

TEST(McKernelOffload, EachReplyWakesItsOwnSender) {
  // Four LWK threads of one process, one per core, issue offloaded STAG
  // registrations at the same instants; their one proxy serves them in
  // turn. Thread i registers (i + 1) x 64 MiB, so the Linux service time
  // in each reply names the request it answers.
  MultiKernelNode node;
  const os::Pid pid = node.lwk->create_process(os::ProcessAttrs{});
  constexpr int kCalls = 5;
  std::vector<std::vector<SimTime>> service(4);
  std::vector<std::vector<SimTime>> woke(4);
  for (int i = 0; i < 4; ++i) {
    spawn_script(
        *node.lwk,
        [&, i, calls = 0](os::ThreadContext& ctx) mutable {
          if (calls > 0) {
            EXPECT_EQ(ctx.last_syscall().path,
                      os::SyscallResult::Path::kOffloaded);
            service[i].push_back(ctx.last_syscall().service_time);
            woke[i].push_back(ctx.now());
          }
          if (calls++ == kCalls) return false;
          ctx.invoke(os::Syscall::kIoctl,
                     os::SyscallArgs{.arg0 = 0,
                                     .arg1 = (i + 1ull) * (64ull << 20),
                                     .arg2 = mck::kTofuRegisterStag});
          return true;
        },
        os::SpawnAttrs{.pid = pid,
                       .affinity = test::one_core(node.topo, 2 + i)});
  }
  node.sim.run_until(10_s);
  EXPECT_EQ(node.offloader->proxy_count(), 1u);
  EXPECT_EQ(node.offloader->replies(), 4u * kCalls);
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(service[i].size(), static_cast<std::size_t>(kCalls));
    for (SimTime t : service[i]) EXPECT_EQ(t, service[i][0]);
    if (i > 0) {
      EXPECT_GT(service[i][0], service[i - 1][0]);
    }
  }
  // The threads ran concurrently: every thread's first reply came before
  // any thread's last.
  SimTime latest_first = SimTime::zero();
  SimTime earliest_last = SimTime::max();
  for (const auto& w : woke) {
    latest_first = std::max(latest_first, w.front());
    earliest_last = std::min(earliest_last, w.back());
  }
  EXPECT_LT(latest_first, earliest_last);
}

TEST(McKernelPico, RegistrationUsesFastPathWhenEnabled) {
  MultiKernelNode with_pico(
      [](mck::McKernelConfig& c) { c.picodriver.enabled = true; });
  os::SyscallResult res;
  int phase = 0;
  spawn_script(*with_pico.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kIoctl,
                 os::SyscallArgs{.arg0 = 0, .arg1 = 64ull << 20,
                                 .arg2 = mck::kTofuRegisterStag});
      return true;
    }
    res = ctx.last_syscall();
    return false;
  });
  with_pico.sim.run_until(1_s);
  EXPECT_EQ(res.path, os::SyscallResult::Path::kFastDriver);
  EXPECT_EQ(with_pico.lwk->picodriver().registrations(), 1u);
  EXPECT_EQ(with_pico.lwk->offloaded_syscalls(), 0u);
}

TEST(McKernelPico, RegistrationOffloadsWithoutPicoDriver) {
  MultiKernelNode node;  // picodriver disabled by default
  os::SyscallResult res;
  int phase = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kIoctl,
                 os::SyscallArgs{.arg0 = 0, .arg1 = 64ull << 20,
                                 .arg2 = mck::kTofuRegisterStag});
      return true;
    }
    res = ctx.last_syscall();
    return false;
  });
  node.sim.run_until(1_s);
  EXPECT_EQ(res.path, os::SyscallResult::Path::kOffloaded);
}

TEST(McKernelMemory, FreedMemoryIsRetainedAndReused) {
  MultiKernelNode node;
  const std::uint64_t len = 32ull << 20;
  SimTime first_alloc, second_alloc;
  std::uint64_t addr = 0;
  int phase = 0;
  SimTime mark;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    switch (phase++) {
      case 0:
        mark = ctx.now();
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = len});
        return true;
      case 1:
        first_alloc = ctx.now() - mark;
        addr = static_cast<std::uint64_t>(ctx.last_syscall().value);
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = addr, .arg1 = len});
        return true;
      case 2:
        mark = ctx.now();
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = len});
        return true;
      default:
        second_alloc = ctx.now() - mark;
        return false;
    }
  });
  node.sim.run_until(1_s);
  // After the munmap the bytes sit in the process pool...
  // (they were consumed again by the second mmap, so the pool is empty at
  // the end; the observable effect is the second allocation being served
  // pre-populated, i.e. not slower than the first.)
  EXPECT_LE(second_alloc, first_alloc);
}

TEST(McKernelMemory, PoolAccumulatesAcrossFrees) {
  MultiKernelNode node;
  const std::uint64_t len = 8ull << 20;
  int phase = 0;
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    const auto last = static_cast<std::uint64_t>(ctx.last_syscall().value);
    switch (phase++) {
      case 0:
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = len});
        return true;
      case 1:
        first = last;
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = len});
        return true;
      case 2:
        second = last;
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = first, .arg1 = len});
        return true;
      case 3:
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = second, .arg1 = len});
        return true;
      case 4:
        // Only the two frees together cover this request.
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 2 * len});
        return true;
      default:
        return false;
    }
  });
  node.sim.run_until(1_s);
  std::size_t reuses = 0;
  for (const auto& r : node.trace.snapshot()) {
    if (r.label == "fault:pool-reuse") ++reuses;
  }
  EXPECT_EQ(reuses, 1u);
}

TEST(McKernelSignals, SignalWakesBlockedThreadWithEintr) {
  MultiKernelNode node;
  os::SyscallResult res;
  int phase = 0;
  const auto tid = spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.invoke(os::Syscall::kFutex, os::SyscallArgs{.arg0 = 0});  // park
      return true;
    }
    res = ctx.last_syscall();
    return false;
  });
  node.sim.run_until(10_ms);
  EXPECT_TRUE(node.lwk->thread_alive(tid));
  node.lwk->send_signal(tid);
  node.sim.run_until(20_ms);
  EXPECT_FALSE(node.lwk->thread_alive(tid));
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.value, -4);  // EINTR
}

TEST(McKernelNoise, FwqIsNoiseFreeOnQuietLwk) {
  MultiKernelNode node;
  noise::FwqConfig cfg;
  cfg.work_quantum = SimTime::from_ms(6.5);
  cfg.iterations = 200;
  const auto traces =
      noise::run_fwq(*node.lwk, node.topo.application_cores(), cfg);
  const auto stats = noise::compute_noise_stats(traces);
  // Tick-less, daemon-free: every iteration is exactly the quantum.
  EXPECT_EQ(stats.max_noise_length, SimTime::zero());
  EXPECT_DOUBLE_EQ(stats.noise_rate, 0.0);
  EXPECT_EQ(stats.t_min, SimTime::from_ms(6.5));
}

}  // namespace
}  // namespace hpcos
