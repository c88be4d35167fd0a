// Unit tests: hardware models and the Table-1 platform configurations.
#include <gtest/gtest.h>

#include "common/check.h"
#include "hw/cpuset.h"
#include "hw/hwbarrier.h"
#include "hw/memory.h"
#include "hw/platform.h"
#include "hw/tlb.h"
#include "hw/topology.h"

namespace hpcos::hw {
namespace {

using namespace hpcos::literals;

TEST(CpuSet, BasicOps) {
  CpuSet s = CpuSet::of(16, {1, 3, 5});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.test(3));
  EXPECT_FALSE(s.test(2));
  EXPECT_FALSE(s.test(100));  // out of range reads are safe
  EXPECT_EQ(s.first(), 1);
  EXPECT_EQ(s.next(1), 3);
  EXPECT_EQ(s.next(5), kInvalidCore);
  s.set(3, false);
  EXPECT_EQ(s.count(), 2u);
}

TEST(CpuSet, SetOperations) {
  const CpuSet a = CpuSet::range(8, 0, 3);
  const CpuSet b = CpuSet::range(8, 2, 5);
  EXPECT_EQ((a & b).to_vector(), (std::vector<CoreId>{2, 3}));
  EXPECT_EQ((a | b).count(), 6u);
  EXPECT_EQ(a.minus(b).to_vector(), (std::vector<CoreId>{0, 1}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.minus(b).intersects(b));
  EXPECT_TRUE(CpuSet::all(8).contains(a));
  EXPECT_FALSE(a.contains(b));
}

TEST(CpuSet, ToStringUsesRanges) {
  EXPECT_EQ(CpuSet::range(64, 0, 47).to_string(), "0-47");
  EXPECT_EQ(CpuSet::of(16, {1, 2, 3, 7}).to_string(), "1-3,7");
  EXPECT_EQ(CpuSet(8).to_string(), "");
}

TEST(Topology, SmtSiblingsFollowLinuxNumbering) {
  NodeTopology knl("KNL", 68, 4);
  EXPECT_EQ(knl.logical_cores(), 272);
  // KNL convention: cpu 0, 68, 136, 204 share physical core 0.
  const CpuSet sib = knl.smt_siblings(0);
  EXPECT_TRUE(sib.test(0));
  EXPECT_TRUE(sib.test(68));
  EXPECT_TRUE(sib.test(136));
  EXPECT_TRUE(sib.test(204));
  EXPECT_EQ(sib.count(), 4u);
  EXPECT_EQ(knl.physical_of(204), 0);
  EXPECT_EQ(knl.physical_of(69), 1);
}

TEST(Topology, PartitionMustNotOverlap) {
  NodeTopology t("x", 4, 1);
  EXPECT_THROW(
      t.set_core_partition(CpuSet::range(4, 0, 1), CpuSet::range(4, 1, 3)),
      SimError);
}

TEST(Tlb, ReachAndMissFractions) {
  TlbModel tlb(TlbParams{.l1_entries = 16, .l2_entries = 1024});
  // 1024 entries x 2M pages = 2 GiB reach (the A64FX advantage, Table 1).
  EXPECT_EQ(tlb.reach_bytes(PageSize::k2M), 2ull << 30);
  EXPECT_DOUBLE_EQ(tlb.miss_fraction(1ull << 30, PageSize::k2M), 0.0);
  const double m = tlb.miss_fraction(4ull << 30, PageSize::k2M);
  EXPECT_NEAR(m, 0.5, 1e-9);
  EXPECT_GT(tlb.access_slowdown(4ull << 30, PageSize::k2M), 1.0);
  EXPECT_DOUBLE_EQ(tlb.access_slowdown(1ull << 20, PageSize::k2M), 1.0);
}

TEST(Tlb, KnlHasFarSmallerReachThanA64fx) {
  const auto ofp = make_ofp_platform();
  const auto fugaku = make_fugaku_platform();
  TlbModel knl(ofp.tlb);
  TlbModel a64(fugaku.tlb);
  // 64 entries x 2M = 128 MiB vs 1024 x 2M = 2 GiB.
  EXPECT_EQ(knl.reach_bytes(PageSize::k2M), 128ull << 20);
  EXPECT_EQ(a64.reach_bytes(PageSize::k2M), 2048ull << 20);
  // Same working set: KNL suffers, A64FX does not.
  EXPECT_GT(knl.access_slowdown(1ull << 30, PageSize::k2M), 1.2);
  EXPECT_DOUBLE_EQ(a64.access_slowdown(1ull << 30, PageSize::k2M), 1.0);
}

TEST(Tlb, BroadcastStallMatchesPaperNumber) {
  const auto fugaku = make_fugaku_platform();
  TlbModel a64(fugaku.tlb);
  // §4.2.2: ~200 ns per TLBI on every other core; hundreds to thousands of
  // flushes yield hundreds of microseconds.
  EXPECT_EQ(a64.broadcast_stall(1), SimTime::ns(200));
  EXPECT_EQ(a64.broadcast_stall(2000), SimTime::us(400));
  TlbModel x86(make_ofp_platform().tlb);
  EXPECT_EQ(x86.broadcast_stall(2000), SimTime::zero());  // no TLBI bcast
}

TEST(Memory, StreamTimeFromBandwidth) {
  NodeMemory m;
  m.add_region(MemoryRegion{
      .numa = 0,
      .params = {.kind = MemoryKind::kHbm2,
                 .capacity_bytes = 8_GiB,
                 .bandwidth_bytes_per_sec = 100ull * 1000 * 1000 * 1000}});
  EXPECT_EQ(m.stream_time(MemoryKind::kHbm2, 100ull * 1000 * 1000 * 1000),
            SimTime::sec(1));
  EXPECT_EQ(m.capacity_of(MemoryKind::kHbm2), 8_GiB);
  EXPECT_THROW(m.stream_time(MemoryKind::kDdr4, 1), SimError);
}

TEST(HwBarrier, HardwareBeatsSoftwareTree) {
  HwBarrier with(HwBarrierParams{.available = true,
                                 .hw_latency = SimTime::ns(200),
                                 .sw_per_level = SimTime::ns(120)});
  HwBarrier without(HwBarrierParams{.available = false,
                                    .hw_latency = SimTime::ns(200),
                                    .sw_per_level = SimTime::ns(120)});
  EXPECT_EQ(with.barrier_cost(12), SimTime::ns(200));
  // 12 threads -> 4 levels x 120 ns.
  EXPECT_EQ(without.barrier_cost(12), SimTime::ns(480));
  EXPECT_EQ(with.barrier_cost(1), SimTime::zero());
  EXPECT_GT(without.barrier_cost(48), with.barrier_cost(48));
}

TEST(Platform, Table1Attributes) {
  const auto ofp = make_ofp_platform();
  EXPECT_EQ(ofp.topology.logical_cores(), 272);
  EXPECT_EQ(ofp.num_compute_nodes, 8192);
  EXPECT_EQ(ofp.tlb.l2_entries, 64);
  EXPECT_EQ(ofp.memory.capacity_of(MemoryKind::kDdr4), 96_GiB);
  EXPECT_EQ(ofp.memory.capacity_of(MemoryKind::kMcdram), 16_GiB);
  EXPECT_FALSE(ofp.linux_settings.containerized);
  EXPECT_FALSE(ofp.linux_settings.cgroup_cpu_isolation);
  EXPECT_EQ(ofp.linux_settings.large_pages, LargePageMechanism::kThp);
  EXPECT_EQ(ofp.interconnect, InterconnectKind::kOmniPath);
  EXPECT_EQ(ofp.app_core_count(), 256);
  EXPECT_EQ(ofp.system_core_count(), 16);

  const auto fugaku = make_fugaku_platform();
  EXPECT_EQ(fugaku.topology.logical_cores(), 50);
  EXPECT_EQ(fugaku.num_compute_nodes, 158976);
  EXPECT_EQ(fugaku.tlb.l1_entries, 16);
  EXPECT_EQ(fugaku.tlb.l2_entries, 1024);
  EXPECT_EQ(fugaku.memory.total_capacity(), 32_GiB);
  EXPECT_TRUE(fugaku.linux_settings.containerized);
  EXPECT_TRUE(fugaku.linux_settings.cgroup_cpu_isolation);
  EXPECT_TRUE(fugaku.linux_settings.irq_steered_to_os_cores);
  EXPECT_EQ(fugaku.linux_settings.large_pages,
            LargePageMechanism::kHugeTlbFs);
  EXPECT_EQ(fugaku.app_core_count(), 48);
  EXPECT_EQ(fugaku.system_core_count(), 2);
  EXPECT_EQ(make_fugaku_platform(4).topology.logical_cores(), 52);

  // 4 application NUMA domains of 12 cores each (one per CMG).
  int app_domains = 0;
  for (const auto& d : fugaku.topology.numa_domains()) {
    if (!d.is_system_domain) {
      EXPECT_EQ(d.cores.count(), 12u);
      ++app_domains;
    }
  }
  EXPECT_EQ(app_domains, 4);

  const auto testbed = make_fugaku_testbed_platform();
  EXPECT_EQ(testbed.num_compute_nodes, 16);
  EXPECT_EQ(testbed.topology.logical_cores(), 50);
}

}  // namespace
}  // namespace hpcos::hw
