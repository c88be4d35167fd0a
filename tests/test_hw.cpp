// Unit tests: hardware models and the Table-1 platform configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "hw/cpuset.h"
#include "hw/hwbarrier.h"
#include "hw/memory.h"
#include "hw/platform.h"
#include "hw/tlb.h"
#include "hw/topology.h"
#include "test_support.h"

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

// Reference model for CpuSet: one bool per core.
using Model = std::vector<bool>;

Model model_of(const CpuSet& s) {
  Model m(s.capacity());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = s.test(static_cast<CoreId>(i));
  }
  return m;
}

bool model_test(const Model& m, CoreId id) {
  return id >= 0 && static_cast<std::size_t>(id) < m.size() &&
         m[static_cast<std::size_t>(id)];
}

CoreId model_next(const Model& m, CoreId id) {
  for (CoreId i = std::max<CoreId>(id + 1, 0);
       static_cast<std::size_t>(i) < m.size(); ++i) {
    if (m[static_cast<std::size_t>(i)]) return i;
  }
  return kInvalidCore;
}

std::string model_string(const Model& m) {
  std::string out;
  for (std::size_t i = 0; i < m.size();) {
    if (!m[i]) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end + 1 < m.size() && m[end + 1]) ++end;
    if (!out.empty()) out += ",";
    out += std::to_string(i);
    if (end > i) out += "-" + std::to_string(end);
    i = end + 1;
  }
  return out;
}

std::size_t model_count(const Model& m) {
  return static_cast<std::size_t>(std::count(m.begin(), m.end(), true));
}

// `s` holds exactly the cores of `m`: membership, capacity, count, and
// equality with the same set built core by core.
void expect_matches(const CpuSet& s, const Model& m) {
  EXPECT_EQ(model_of(s), m);
  EXPECT_EQ(s.capacity(), m.size());
  EXPECT_EQ(s.count(), model_count(m));
  CpuSet rebuilt(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i]) rebuilt.set(static_cast<CoreId>(i));
  }
  EXPECT_EQ(s, rebuilt);
}

// Combines two models core by core over the larger capacity (or over
// `size` when given), reading missing cores as unset.
template <class Op>
Model model_combine(const Model& a, const Model& b, Op op,
                    std::size_t size) {
  Model r(size);
  for (std::size_t i = 0; i < size; ++i) {
    r[i] = op(i < a.size() && a[i], i < b.size() && b[i]);
  }
  return r;
}

// A random set of `capacity` cores, built through set() and mirrored in
// its model; the density is drawn per set so that empty and full sets
// occur.
struct Sample {
  CpuSet set;
  Model model;
};

Sample random_sample(RngStream& rng, std::size_t capacity) {
  static constexpr double kDensity[] = {0.0, 0.05, 0.5, 0.95, 1.0};
  const double p = kDensity[rng.uniform_index(5)];
  Sample s{CpuSet(capacity), Model(capacity)};
  auto apply = [&s](std::size_t i, bool value) {
    s.set.set(static_cast<CoreId>(i), value);
    s.model[i] = value;
  };
  for (std::size_t i = 0; i < capacity; ++i) {
    if (rng.bernoulli(p)) apply(i, true);
  }
  // Some clears, so set(id, false) is covered too.
  for (int k = 0; k < 4 && capacity > 0; ++k) {
    apply(rng.uniform_index(capacity), false);
  }
  return s;
}

TEST(CpuSet, MatchesReferenceModel) {
  const std::size_t capacities[] = {0, 1, 63, 64, 65, 128, 272};
  RngStream rng(Seed{2021}, 0);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t cap_a = capacities[rng.uniform_index(7)];
    const std::size_t cap_b = capacities[rng.uniform_index(7)];
    const auto [a, ma] = random_sample(rng, cap_a);
    const auto [b, mb] = random_sample(rng, cap_b);
    SCOPED_TRACE("a=" + a.to_string() + "/" + std::to_string(cap_a) +
                 " b=" + b.to_string() + "/" + std::to_string(cap_b));

    // Single-set queries, including ids just outside the capacity.
    ASSERT_EQ(a.capacity(), cap_a);
    const auto cap = static_cast<CoreId>(cap_a);
    for (CoreId id = -2; id <= cap + 65; ++id) {
      ASSERT_EQ(a.test(id), model_test(ma, id)) << id;
    }
    expect_matches(a, ma);
    ASSERT_EQ(a.any(), a.count() > 0);
    ASSERT_EQ(a.empty(), a.count() == 0);
    ASSERT_EQ(a.first(), model_next(ma, -1));
    for (CoreId id = -1; id <= cap + 1; ++id) {
      ASSERT_EQ(a.next(id), model_next(ma, id)) << id;
    }
    std::vector<CoreId> ids;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      if (ma[i]) ids.push_back(static_cast<CoreId>(i));
    }
    ASSERT_EQ(a.to_vector(), ids);
    ASSERT_EQ(a.to_string(), model_string(ma));

    // Binary operations across mixed capacities.
    const std::size_t wide = std::max(cap_a, cap_b);
    const Model both = model_combine(ma, mb, std::logical_and<>(), wide);
    expect_matches(a & b, both);
    expect_matches(a | b, model_combine(ma, mb, std::logical_or<>(), wide));
    expect_matches(a.minus(b),
                   model_combine(
                       ma, mb, [](bool x, bool y) { return x && !y; },
                       cap_a));
    ASSERT_EQ(a.intersects(b), model_count(both) > 0);
    ASSERT_EQ(a.contains(b),
              model_count(model_combine(
                  mb, ma, [](bool y, bool x) { return y && !x; }, wide)) ==
                  0);
    ASSERT_EQ(a == b, ma == mb);
  }
}

TEST(CpuSet, FactoriesMatchReferenceModel) {
  for (std::size_t cap : {1, 63, 64, 65, 128, 272}) {
    SCOPED_TRACE(cap);
    const auto last = static_cast<CoreId>(cap - 1);
    EXPECT_EQ(model_of(CpuSet::all(cap)), Model(cap, true));
    EXPECT_EQ(CpuSet::all(cap).count(), cap);
    EXPECT_EQ(CpuSet::all(cap), CpuSet::range(cap, 0, last));
    EXPECT_EQ(CpuSet::all(cap).to_string(),
              cap == 1 ? "0" : "0-" + std::to_string(last));
    CpuSet rebuilt(cap);
    for (CoreId id = 0; id <= last; ++id) rebuilt.set(id);
    EXPECT_EQ(rebuilt, CpuSet::all(cap));
    EXPECT_TRUE(CpuSet::all(cap).contains(CpuSet::of(cap, {last})));
    EXPECT_EQ(CpuSet::of(cap, {last}).first(), last);
    EXPECT_THROW(CpuSet(cap).set(static_cast<CoreId>(cap)), SimError);
    EXPECT_THROW(CpuSet(cap).set(-1), SimError);
  }
  // Equal membership at different capacities is not equality.
  EXPECT_NE(CpuSet::of(64, {3}), CpuSet::of(65, {3}));
  EXPECT_EQ(CpuSet(), CpuSet(0));
  EXPECT_TRUE(CpuSet().empty());
}

TEST(Topology, SmtSiblingsFollowLinuxNumbering) {
  // KNL convention: cpu 0, 68, 136, 204 share physical core 0. OFP's
  // designated system CPUs are the four hyperthreads of physical cores
  // 0-3 (the appendix's 0-3,68-71,136-139,204-207).
  const auto ofp = make_ofp_platform();
  const NodeTopology& knl = ofp.topology;
  EXPECT_EQ(knl.logical_cores(), 272);
  const CpuSet& sys = knl.system_cores();
  EXPECT_EQ(sys.count(), 16u);
  for (const CoreId c : {0, 68, 136, 204, 3, 71, 139, 207}) {
    EXPECT_TRUE(sys.test(c)) << c;
  }
  EXPECT_FALSE(sys.test(4));
  EXPECT_FALSE(sys.test(72));
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
  // DDR4 and MCDRAM as two NUMA domains (quadrant-flat mode).
  ASSERT_EQ(ofp.topology.numa_domains().size(), 2u);
  EXPECT_EQ(ofp.topology.numa_domains()[0].memory_bytes, 96_GiB);
  EXPECT_EQ(ofp.topology.numa_domains()[1].memory_bytes, 16_GiB);
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
  EXPECT_EQ(fugaku.topology.total_memory_bytes(), 32_GiB);
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
