// End-to-end integration: a miniature bulk-synchronous application running
// on the node DES with real syscalls (mmap/munmap churn), futex-based
// barriers between rank threads, OS noise, and — on the multi-kernel —
// the IHK/proxy delegation path. This is the whole stack in one test.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/job_launcher.h"
#include "cluster/node.h"
#include "kernel_test_util.h"
#include "noise/fwq.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

// A futex-style barrier across rank threads, coordinated by the test via
// complete_blocked_syscall (the role the MPI runtime's shared memory would
// play).
class MiniBarrier {
 public:
  MiniBarrier(os::NodeKernel& kernel, int parties)
      : kernel_(kernel), parties_(parties) {}

  // Returns true when the caller is the last arriver (must not block).
  bool arrive(os::ThreadId tid) {
    waiting_.push_back(tid);
    if (static_cast<int>(waiting_.size()) < parties_) return false;
    // Release everyone but the last arriver.
    for (std::size_t i = 0; i + 1 < waiting_.size(); ++i) {
      os::SyscallResult r;
      r.ok = true;
      kernel_.complete_blocked_syscall(waiting_[i], r);
    }
    waiting_.clear();
    return true;
  }

 private:
  os::NodeKernel& kernel_;
  int parties_;
  std::vector<os::ThreadId> waiting_;
};

// One rank: per iteration mmap a scratch buffer, compute, munmap, barrier.
class MiniRank final : public os::ThreadBody {
 public:
  MiniRank(MiniBarrier& barrier, int iterations, SimTime* done)
      : barrier_(barrier), iterations_(iterations), done_(done) {}

  void step(os::ThreadContext& ctx) override {
    switch (phase_) {
      case 0:  // map scratch
        phase_ = 1;
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 16ull << 20});
        return;
      case 1:  // compute
        addr_ = static_cast<std::uint64_t>(ctx.last_syscall().value);
        phase_ = 2;
        ctx.compute(2_ms);
        return;
      case 2:  // free scratch
        phase_ = 3;
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = addr_, .arg1 = 16ull << 20});
        return;
      case 3:  // barrier
        if (barrier_.arrive(ctx.tid())) {
          // Last arriver proceeds directly.
          next_iteration(ctx);
          return;
        }
        phase_ = 4;
        ctx.invoke(os::Syscall::kFutex, os::SyscallArgs{.arg0 = 0});
        return;
      case 4:  // released from the barrier
        next_iteration(ctx);
        return;
      default:
        ctx.exit();
    }
  }

 private:
  void next_iteration(os::ThreadContext& ctx) {
    if (++iter_ >= iterations_) {
      *done_ = ctx.now();
      phase_ = 5;
      ctx.exit();
      return;
    }
    phase_ = 1;
    ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 16ull << 20});
  }

  MiniBarrier& barrier_;
  int iterations_;
  SimTime* done_;
  int phase_ = 0;
  int iter_ = 0;
  std::uint64_t addr_ = 0;
};

SimTime run_mini_app(cluster::SimNode& node, int ranks, int iterations) {
  cluster::JobLauncher launcher(node);
  const auto job = launcher.launch(cluster::LaunchSpec{
      .ranks = ranks, .threads_per_rank = 1,
      .paging = os::PagingPolicy::kDemand});
  MiniBarrier barrier(node.app_kernel(), ranks);
  std::vector<SimTime> done(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    launcher.spawn_rank_thread(
        job, r,
        std::make_unique<MiniRank>(barrier, iterations,
                                   &done[static_cast<std::size_t>(r)]),
        "mini-rank-" + std::to_string(r));
  }
  node.simulator().run_until(SimTime::sec(60));
  SimTime last;
  for (const SimTime d : done) {
    EXPECT_GT(d, SimTime::zero());  // every rank finished
    last = std::max(last, d);
  }
  return last;
}

TEST(Integration, MiniAppCompletesOnBothOsStacks) {
  const auto platform = hw::make_fugaku_testbed_platform();

  auto lcfg = linuxk::make_fugaku_linux_config(platform);
  lcfg.profile = noise::strip_population_tails(lcfg.profile);
  auto linux_node = cluster::SimNode::make_linux_node(
      platform, lcfg, cluster::SimNodeOptions{.seed = Seed{5}});
  const SimTime linux_total = run_mini_app(*linux_node, 4, 20);

  auto mcfg = mck::McKernelConfig::defaults();
  auto mk_node = cluster::SimNode::make_multikernel_node(
      platform, lcfg, std::move(mcfg),
      cluster::SimNodeOptions{.seed = Seed{5}});
  const SimTime mck_total = run_mini_app(*mk_node, 4, 20);

  // Both complete 20 iterations of ~2 ms compute; the LWK's cheaper
  // memory path and missing ticks keep it at or below Linux.
  EXPECT_GT(linux_total, SimTime::ms(40));
  EXPECT_GT(mck_total, SimTime::ms(40));
  EXPECT_LE(mck_total, linux_total);
  // The mini app's calls are all LWK-local (memory + futex).
  EXPECT_EQ(mk_node->lwk()->offloaded_syscalls(), 0u);
  EXPECT_GT(mk_node->lwk()->local_syscalls(), 0u);
}

TEST(Integration, MiniAppChurnKeepsLwkPoolWarm) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto mcfg = mck::McKernelConfig::defaults();
  auto node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform), std::move(mcfg),
      cluster::SimNodeOptions{.seed = Seed{6}});
  cluster::JobLauncher launcher(*node);
  const auto job = launcher.launch(cluster::LaunchSpec{
      .ranks = 1, .threads_per_rank = 1,
      .paging = os::PagingPolicy::kDemand});
  MiniBarrier barrier(node->app_kernel(), 1);
  SimTime done;
  launcher.spawn_rank_thread(
      job, 0, std::make_unique<MiniRank>(barrier, 10, &done), "solo");
  node->simulator().run_until(SimTime::sec(10));
  ASSERT_GT(done, SimTime::zero());
  // Exactly 10 mmap + 10 munmap, all served locally by the LWK.
  EXPECT_EQ(node->lwk()->local_syscalls(), 20u);
  EXPECT_EQ(node->lwk()->offloaded_syscalls(), 0u);
}

TEST(Integration, MultiKernelFwqIsDeterministicPerSeed) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto run = [&](std::uint64_t seed) {
    auto mcfg = mck::McKernelConfig::defaults();  // hw-floor noise active
    auto node = cluster::SimNode::make_multikernel_node(
        platform, linuxk::make_fugaku_linux_config(platform),
        std::move(mcfg), cluster::SimNodeOptions{.seed = Seed{seed}});
    noise::FwqConfig fwq;
    fwq.iterations = 2000;
    const auto traces = noise::run_fwq(
        node->app_kernel(), node->topology().application_cores(), fwq);
    std::vector<std::int64_t> flat;
    for (const auto& t : traces) {
      for (const SimTime it : t.iteration_times) {
        flat.push_back(it.count_ns());
      }
    }
    return flat;
  };
  const auto a = run(123);
  const auto b = run(123);
  const auto c = run(456);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace hpcos
