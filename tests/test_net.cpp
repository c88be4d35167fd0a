// Unit tests: interconnect fabric, collectives, RDMA registration model.
#include <gtest/gtest.h>

#include "net/collectives.h"
#include "net/fabric.h"
#include "net/rdma.h"
#include "test_support.h"

namespace hpcos::net {
namespace {

using namespace hpcos::literals;

TEST(Fabric, P2pLatencyAndBandwidthTerms) {
  // A halo exchange with one neighbour is one point-to-point message.
  const Fabric f(make_tofud_params());
  const SimTime small = f.halo_exchange(8, 1);
  const SimTime large = f.halo_exchange(1 << 20, 1);
  EXPECT_GT(small, SimTime::zero());
  EXPECT_GT(large, small);
  // 1 MiB at 6.8 GB/s ~= 154 us dominates the latency terms.
  EXPECT_NEAR(large.to_us(), 154.0, 20.0);
}

TEST(Fabric, HaloExchangeScalesWithNeighbors) {
  const Fabric f(make_tofud_params());
  const SimTime h6 = f.halo_exchange(64 << 10, 6);
  const SimTime h26 = f.halo_exchange(64 << 10, 26);
  EXPECT_GT(h26, h6);
  EXPECT_EQ(f.halo_exchange(1024, 0), SimTime::zero());
}

TEST(Collectives, BarrierIsLogarithmic) {
  const Collectives c{Fabric(make_omnipath_params())};
  EXPECT_EQ(c.barrier(1), SimTime::zero());
  const SimTime b2 = c.barrier(2);
  const SimTime b1024 = c.barrier(1024);
  const SimTime b2048 = c.barrier(2048);
  EXPECT_GT(b2, SimTime::zero());
  // log2(1024) = 10 rounds vs 1 round.
  EXPECT_EQ(b1024, b2 * 10);
  EXPECT_EQ(b2048, b2 * 11);
}

TEST(Collectives, TofuBarrierGatesBeatSoftware) {
  const Collectives tofu{Fabric(make_tofud_params())};
  const Collectives opa{Fabric(make_omnipath_params())};
  EXPECT_LT(tofu.barrier(4096), opa.barrier(4096));
}

TEST(Collectives, AllreduceLatencyAndBandwidth) {
  const Collectives c{Fabric(make_tofud_params())};
  const SimTime tiny = c.allreduce(32768, 8);
  const SimTime big = c.allreduce(32768, 16 << 20);
  EXPECT_GT(tiny, c.barrier(32768));  // 2x the rounds
  EXPECT_GT(big, tiny);
  EXPECT_EQ(c.allreduce(1, 1 << 20), SimTime::zero());
}

TEST(Collectives, AllreducePhasesSumExactlyToAllreduce) {
  const Collectives c{Fabric(make_tofud_params())};
  for (const std::int64_t ranks : {2, 100, 32768, 158976}) {
    for (const std::uint64_t bytes : {8ull, 4096ull, 16ull << 20}) {
      const auto p = c.allreduce_phases(ranks, bytes);
      // Exact by construction: allgather absorbs the integer-ns rounding.
      EXPECT_EQ(p.reduce_scatter + p.allgather, c.allreduce(ranks, bytes));
      EXPECT_GT(p.reduce_scatter, SimTime::zero());
      EXPECT_GT(p.allgather, SimTime::zero());
    }
  }
  const auto degenerate = c.allreduce_phases(1, 1 << 20);
  EXPECT_EQ(degenerate.reduce_scatter, SimTime::zero());
  EXPECT_EQ(degenerate.allgather, SimTime::zero());
}

TEST(Rdma, MedianCostOrderingAcrossPaths) {
  const RdmaRegistrationModel m;
  const std::uint64_t bytes = 128ull << 20;
  const SimTime linux_cost =
      m.median_cost(RegistrationPath::kLinuxNative, bytes);
  const SimTime offloaded =
      m.median_cost(RegistrationPath::kMcKernelOffloaded, bytes);
  const SimTime pico =
      m.median_cost(RegistrationPath::kMcKernelPicoDriver, bytes);
  // Offloading adds a round trip on top of the Linux work; the PicoDriver
  // pins 2M pages instead of 64K pages: ~32x fewer operations.
  EXPECT_GT(offloaded, linux_cost);
  EXPECT_LT(pico, linux_cost);
  EXPECT_GT(linux_cost.ratio(pico), 10.0);
}

TEST(Rdma, SampleRespectsTailCap) {
  const RdmaRegistrationModel m;
  RngStream rng(Seed{1}, 0);
  const std::uint64_t bytes = 4ull << 20;
  const SimTime med = m.median_cost(RegistrationPath::kLinuxNative, bytes);
  for (int i = 0; i < 2000; ++i) {
    const SimTime s =
        m.sample_worst_of(RegistrationPath::kLinuxNative, bytes, 1, rng);
    EXPECT_LE(s, med.scaled(m.params().tail_max_factor));
    EXPECT_GT(s, SimTime::zero());
  }
}

TEST(Rdma, WorstOfManyExceedsMedianOnHeavyTailPath) {
  const RdmaRegistrationModel m;
  RngStream rng(Seed{2}, 0);
  const std::uint64_t bytes = 64ull << 20;
  const SimTime med = m.median_cost(RegistrationPath::kLinuxNative, bytes);
  const SimTime worst =
      m.sample_worst_of(RegistrationPath::kLinuxNative, bytes, 100000, rng);
  EXPECT_GT(worst, med.scaled(5.0));  // sigma 0.6, z(1e5) ~ 4.3

  // The PicoDriver path is nearly deterministic: even the worst of 100k
  // stays close to the median.
  const SimTime p_med =
      m.median_cost(RegistrationPath::kMcKernelPicoDriver, bytes);
  const SimTime p_worst = m.sample_worst_of(
      RegistrationPath::kMcKernelPicoDriver, bytes, 100000, rng);
  EXPECT_LT(p_worst, p_med.scaled(1.5));
}

TEST(Rdma, ZeroRegistrationsCostNothing) {
  const RdmaRegistrationModel m;
  RngStream rng(Seed{3}, 0);
  EXPECT_EQ(m.sample_worst_of(RegistrationPath::kLinuxNative, 1 << 20, 0,
                              rng),
            SimTime::zero());
}

}  // namespace
}  // namespace hpcos::net
