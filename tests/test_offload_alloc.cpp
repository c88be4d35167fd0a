// Allocation checks: once warm, a multi-kernel node serving offloaded
// stat() calls beside FWQ allocates nothing per event, and the FWQ runners
// hand each thread's trace over instead of copying it. This file is its
// own test binary because it replaces the global operator new with a
// counting one, which no other test should see.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cluster/des_cluster.h"
#include "cluster/node.h"
#include "hw/platform.h"
#include "linuxk/config.h"
#include "mckernel/config.h"
#include "noise/fwq.h"
#include "noise/profiles.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
// Of those, the allocations of exactly g_watched_size bytes.
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::uint64_t> g_watched{0};

void* allocate(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == g_watched_size.load(std::memory_order_relaxed)) {
      g_watched.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return allocate(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return allocate(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hpcos {
namespace {

// An LWK thread issuing back-to-back stat() calls, each delegated through
// IKC to its Linux proxy; `completed` counts the replies across threads.
class StatCaller final : public os::ThreadBody {
 public:
  explicit StatCaller(std::uint64_t& completed) : completed_(completed) {}

  void step(os::ThreadContext& ctx) override {
    if (issued_ && ctx.last_syscall().ok &&
        ctx.last_syscall().path == os::SyscallResult::Path::kOffloaded) {
      ++completed_;
    }
    issued_ = true;
    ctx.invoke(os::Syscall::kStat);
  }

 private:
  std::uint64_t& completed_;
  bool issued_ = false;
};

hw::CpuSet pin(const hw::NodeTopology& topo, hw::CoreId core) {
  return hw::CpuSet::of(static_cast<std::size_t>(topo.logical_cores()),
                        {core});
}

// The bench/scale des_node set-up: a quiet Fugaku-testbed multi-kernel
// node (population tails stripped), four LWK threads pinned to the last
// application cores issuing stat(), and FWQ on the other 44.
TEST(OffloadAllocations, WarmRoundTripAllocatesNothing) {
  constexpr std::size_t kOffloadThreads = 4;
  constexpr std::uint64_t kWarmUpCalls = 20'000;
  constexpr std::uint64_t kCountedCalls = 100'000;

  auto platform = hw::make_fugaku_testbed_platform();
  auto lcfg = linuxk::make_fugaku_linux_config(platform);
  lcfg.profile = noise::strip_population_tails(lcfg.profile);
  auto node = cluster::SimNode::make_multikernel_node(
      std::move(platform), std::move(lcfg), mck::McKernelConfig::defaults(),
      cluster::SimNodeOptions{.seed = Seed{7}});
  const hw::NodeTopology& topo = node->topology();
  const auto app = topo.application_cores().to_vector();
  ASSERT_EQ(app.size(), 48u);

  std::uint64_t completed = 0;
  for (std::size_t i = app.size() - kOffloadThreads; i < app.size(); ++i) {
    os::SpawnAttrs attrs;
    attrs.name = "stat-" + std::to_string(app[i]);
    attrs.affinity = pin(topo, app[i]);
    node->lwk()->spawn(std::make_unique<StatCaller>(completed),
                       std::move(attrs));
  }
  // More quanta than the run reaches, so every FWQ thread is still
  // computing when the count stops.
  const noise::FwqConfig fwq{.work_quantum = SimTime::from_ms(6.5),
                             .iterations = 10'000};
  std::vector<const noise::FwqThread*> bodies;
  for (std::size_t i = 0; i + kOffloadThreads < app.size(); ++i) {
    auto body = std::make_unique<noise::FwqThread>(fwq);
    bodies.push_back(body.get());
    os::SpawnAttrs attrs;
    attrs.name = "fwq-" + std::to_string(app[i]);
    attrs.affinity = pin(topo, app[i]);
    node->lwk()->spawn(std::move(body), std::move(attrs));
  }
  auto quanta = [&] {
    std::size_t n = 0;
    for (const noise::FwqThread* b : bodies) {
      n += b->trace().iteration_times.size();
    }
    return n;
  };

  sim::Simulator& sim = node->simulator();
  auto run_to = [&](std::uint64_t calls) {
    while (completed < calls && sim.step()) {}
  };
  run_to(kWarmUpCalls);
  ASSERT_EQ(completed, kWarmUpCalls);
  const std::size_t quanta0 = quanta();
  const std::uint64_t events0 = sim.events_executed();

  g_allocations.store(0);
  g_counting.store(true);
  run_to(kWarmUpCalls + kCountedCalls);
  g_counting.store(false);

  ASSERT_EQ(completed, kWarmUpCalls + kCountedCalls);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "allocations over " << kCountedCalls << " offloaded calls and "
      << quanta() - quanta0 << " FWQ quanta ("
      << sim.events_executed() - events0 << " events)";
  EXPECT_GT(quanta() - quanta0, 1000u);
  for (const noise::FwqThread* b : bodies) EXPECT_FALSE(b->finished());
}

// Runs `run` and returns how many allocations of exactly `bytes` it made.
template <typename Run>
std::uint64_t allocations_of(std::size_t bytes, Run&& run) {
  g_watched_size.store(bytes);
  g_watched.store(0);
  g_counting.store(true);
  run();
  g_counting.store(false);
  return g_watched.load();
}

// The FWQ runners move each thread's trace out once the run is done. A run
// of N threads then allocates N buffers of `iterations` samples (the
// reserve in FwqThread's constructor); copying the traces out makes 2N.
// The odd iteration count gives the buffers a size nothing else allocates.
constexpr std::uint64_t kTraceIterations = 1'531;
constexpr std::size_t kTraceBytes = kTraceIterations * sizeof(SimTime);

linuxk::LinuxConfig quiet_linux(const hw::PlatformConfig& platform) {
  auto lcfg = linuxk::make_fugaku_linux_config(platform);
  lcfg.profile = noise::AnalyticNoiseProfile{};
  return lcfg;
}

TEST(FwqTraceHandOver, RunFwqAllocatesEachTraceOnce) {
  auto platform = hw::make_fugaku_testbed_platform();
  auto lcfg = quiet_linux(platform);
  auto node = cluster::SimNode::make_linux_node(std::move(platform),
                                                std::move(lcfg));
  const hw::CpuSet cores = node->topology().application_cores();
  const noise::FwqConfig fwq{.work_quantum = SimTime::from_ms(1),
                             .iterations = kTraceIterations};
  std::vector<noise::FwqTrace> traces;
  const std::uint64_t buffers = allocations_of(kTraceBytes, [&] {
    traces = noise::run_fwq(node->app_kernel(), cores, fwq);
  });
  ASSERT_EQ(traces.size(), cores.count());
  for (const noise::FwqTrace& t : traces) {
    EXPECT_EQ(t.iteration_times.size(), kTraceIterations);
  }
  EXPECT_EQ(buffers, traces.size());
}

TEST(FwqTraceHandOver, DesClusterRunFwqAllAllocatesEachTraceOnce) {
  const auto platform = hw::make_fugaku_testbed_platform();
  cluster::DesCluster des(2, platform, quiet_linux(platform),
                          cluster::DesCluster::Options{});
  const noise::FwqConfig fwq{.work_quantum = SimTime::from_ms(1),
                             .iterations = kTraceIterations};
  std::vector<std::vector<noise::FwqTrace>> per_node;
  const std::uint64_t buffers = allocations_of(
      kTraceBytes, [&] { per_node = des.run_fwq_all(fwq); });
  std::size_t threads = 0;
  for (const auto& traces : per_node) {
    for (const noise::FwqTrace& t : traces) {
      EXPECT_EQ(t.iteration_times.size(), kTraceIterations);
      ++threads;
    }
  }
  EXPECT_EQ(threads, 96u);
  EXPECT_EQ(buffers, threads);
}

}  // namespace
}  // namespace hpcos
