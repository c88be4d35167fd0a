// Unit + integration tests: the §4.2 kernel subsystems as real models —
// IRQ routing, blk-mq hardware contexts, and kworker workqueues.
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "linuxk/blkmq.h"
#include "linuxk/irq.h"
#include "linuxk/workqueue.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using test::LinuxNode;
using test::spawn_script;

// ---- IRQ routing ----

TEST(IrqRouter, BalancedByDefaultRoundRobinsOverTheChip) {
  LinuxNode node;
  linuxk::IrqRouter router(*node.kernel);
  router.register_irq(42, "mlx5_comp0", 5_us);
  for (int i = 0; i < 16; ++i) router.fire(42);
  node.sim.run_until(10_ms);
  // 8 cores, 16 interrupts round-robin: two per core, app cores included.
  for (hw::CoreId c = 0; c < 8; ++c) {
    EXPECT_EQ(router.delivered_to(c), 2u) << "core " << c;
  }
  EXPECT_EQ(router.vector(42).fired, 16u);
}

TEST(IrqRouter, SteeringConfinesHandlersToAssistantCores) {
  LinuxNode node;
  linuxk::IrqRouter router(*node.kernel);
  router.register_irq(42, "mlx5_comp0");
  router.register_irq(43, "nvme0q1");
  // The Fugaku countermeasure: every vector to the assistant cores.
  router.steer_all(node.topo.system_cores());
  for (int i = 0; i < 10; ++i) {
    router.fire(42);
    router.fire(43);
  }
  node.sim.run_until(10_ms);
  std::uint64_t on_app = 0;
  for (hw::CoreId c : node.topo.application_cores().to_vector()) {
    on_app += router.delivered_to(c);
  }
  EXPECT_EQ(on_app, 0u);
  EXPECT_EQ(router.delivered_to(0) + router.delivered_to(1), 20u);
}

TEST(IrqRouter, AffinityWriteValidation) {
  LinuxNode node;
  linuxk::IrqRouter router(*node.kernel);
  router.register_irq(7, "dev");
  // An empty/foreign mask is rejected like a bad smp_affinity write.
  EXPECT_FALSE(router.set_affinity(
      7, hw::CpuSet(static_cast<std::size_t>(node.topo.logical_cores()))));
  EXPECT_TRUE(router.set_affinity(7, test::one_core(node.topo, 3)));
  router.fire(7);
  router.fire(7);
  node.sim.run_until(1_ms);
  EXPECT_EQ(router.delivered_to(3), 2u);
}

TEST(IrqRouter, HandlersDelayTheRunningThread) {
  LinuxNode node;
  linuxk::IrqRouter router(*node.kernel);
  router.register_irq(9, "slow-dev", 50_us);
  ASSERT_TRUE(router.set_affinity(9, test::one_core(node.topo, 4)));
  SimTime done;
  int phase = 0;
  spawn_script(
      *node.kernel,
      [&](os::ThreadContext& ctx) {
        if (phase++ == 0) {
          ctx.compute(10_ms);
          return true;
        }
        done = ctx.now();
        return false;
      },
      os::SpawnAttrs{.affinity = test::one_core(node.topo, 4)});
  node.sim.run_until(1_ms);
  router.fire(9);
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 50_us);
}

// ---- blk-mq ----

TEST(BlkMq, DefaultMappingStripesCoresOverContexts) {
  LinuxNode node;
  linuxk::BlkMq blk(*node.kernel, /*num_hw_queues=*/4);
  EXPECT_EQ(blk.contexts().size(), 4u);
  // Every owned core belongs to exactly one context's cpumask.
  std::size_t covered = 0;
  for (const auto& ctx : blk.contexts()) covered += ctx.cpumask.count();
  EXPECT_EQ(covered, 8u);
  // A core's completions run inside its own context mask by default.
  const auto& ctx = blk.context_for(5);
  EXPECT_TRUE(ctx.cpumask.test(5));
}

TEST(BlkMq, CompletionLandsOnApplicationCoreWithoutTheCountermeasure) {
  LinuxNode node;
  linuxk::BlkMq blk(*node.kernel, 4);
  SimTime done;
  int phase = 0;
  spawn_script(
      *node.kernel,
      [&](os::ThreadContext& ctx) {
        if (phase++ == 0) {
          ctx.compute(10_ms);
          return true;
        }
        done = ctx.now();
        return false;
      },
      os::SpawnAttrs{.affinity = test::one_core(node.topo, 6)});
  node.sim.run_until(1_ms);
  // I/O submitted from core 6: completion must run within core 6's ctx.
  // Fire enough completions to wrap the round robin onto core 6 itself.
  const auto mask_cores = blk.context_for(6).cpumask.to_vector();
  for (std::size_t i = 0; i < mask_cores.size(); ++i) {
    blk.complete_io(6, 80_us);
  }
  node.sim.run_until(1_s);
  EXPECT_EQ(blk.completions_on(6), 1u);
  EXPECT_EQ(done, 10_ms + 80_us);  // the app thread paid for it
}

TEST(BlkMq, BindingContextsStopsApplicationCoreCompletions) {
  LinuxNode node;
  linuxk::BlkMq blk(*node.kernel, 4);
  blk.bind_all_contexts(node.topo.system_cores());
  for (int i = 0; i < 32; ++i) {
    blk.complete_io(/*submitting_core=*/6, 80_us);
  }
  node.sim.run_until(1_s);
  for (hw::CoreId c : node.topo.application_cores().to_vector()) {
    EXPECT_EQ(blk.completions_on(c), 0u) << "core " << c;
  }
  EXPECT_EQ(blk.completions_on(0) + blk.completions_on(1), 32u);
}

// ---- workqueues ----

TEST(Workqueue, BoundWorkerRunsOnItsCpu) {
  LinuxNode node;
  linuxk::WorkqueuePool wq(*node.kernel, 1);
  wq.queue_work_on(5, linuxk::WorkItem{.duration = 100_us, .label = "w"});
  wq.queue_work_on(5, linuxk::WorkItem{.duration = 100_us, .label = "w"});
  node.sim.run_until(100_ms);
  EXPECT_EQ(wq.executed(), 2u);
  EXPECT_EQ(wq.bound_worker_count(), 1u);
  // Kernel-thread time lands in the core's kernel accounting.
  EXPECT_GE(node.kernel->accounting(5).kernel, 200_us);
}

TEST(Workqueue, UnboundWorkersFollowTheirCpumask) {
  LinuxNode node;
  linuxk::WorkqueuePool wq(*node.kernel, 2);
  // The countermeasure: unbound kworkers to the assistant cores.
  wq.set_unbound_cpumask(node.topo.system_cores());
  for (int i = 0; i < 10; ++i) {
    wq.queue_unbound(linuxk::WorkItem{.duration = 200_us, .label = "u"});
  }
  node.sim.run_until(1_s);
  EXPECT_EQ(wq.executed(), 10u);
  SimTime app_kernel;
  for (hw::CoreId c : node.topo.application_cores().to_vector()) {
    app_kernel += node.kernel->accounting(c).kernel;
  }
  EXPECT_EQ(app_kernel, SimTime::zero());
  EXPECT_GE(node.kernel->accounting(0).kernel +
                node.kernel->accounting(1).kernel,
            2_ms);
}

TEST(Workqueue, UnboundWorkCanLandOnAppCoresByDefault) {
  // Without the countermeasure, the unbound mask covers the whole chip:
  // an FWQ-busy application core can be preempted by kworker activity.
  LinuxNode node;
  linuxk::WorkqueuePool wq(*node.kernel, 4);
  SimTime done;
  int phase = 0;
  for (hw::CoreId c : node.topo.application_cores().to_vector()) {
    spawn_script(
        *node.kernel,
        [&, first = true](os::ThreadContext& ctx) mutable {
          if (first) {
            first = false;
            ctx.compute(20_ms);
            return true;
          }
          done = std::max(done, ctx.now());
          return false;
        },
        os::SpawnAttrs{.affinity = test::one_core(node.topo, c)});
  }
  (void)phase;
  node.sim.run_until(1_ms);
  for (int i = 0; i < 8; ++i) {
    wq.queue_unbound(linuxk::WorkItem{.duration = 300_us, .label = "u"});
  }
  node.sim.run_until(1_s);
  EXPECT_EQ(wq.executed(), 8u);
  // With all app cores busy and only 2 idle system cores, at least some
  // kworker time competed with application threads.
  SimTime total_app_kernel;
  for (hw::CoreId c : node.topo.application_cores().to_vector()) {
    total_app_kernel += node.kernel->accounting(c).kernel;
  }
  // (Scheduling may favor the idle system cores; assert the mechanism by
  // checking the mask covers app cores rather than a racy placement.)
  EXPECT_TRUE(wq.unbound_cpumask().intersects(
      node.topo.application_cores()));
}

TEST(Workqueue, KworkerTimeIsTracedAsKworkerActivity) {
  LinuxNode node;  // trace enabled by the fixture
  linuxk::WorkqueuePool wq(*node.kernel, 1);
  wq.queue_work_on(4, linuxk::WorkItem{.duration = 150_us, .label = "x"});
  node.sim.run_until(100_ms);
  SimTime kworker_on_core4 = SimTime::zero();
  for (const auto& r : node.trace.snapshot()) {
    if (r.category == sim::TraceCategory::kKworker && r.core == 4) {
      kworker_on_core4 += r.duration;
    }
  }
  EXPECT_GE(kworker_on_core4, 150_us);
}

}  // namespace
}  // namespace hpcos
