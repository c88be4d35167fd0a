// Unit tests: IHK resource partitioning, OS instance lifecycle, IKC.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ihk/ihk.h"
#include "kernel_test_util.h"
#include "test_support.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

class IhkTest : public ::testing::Test {
 protected:
  hw::NodeTopology topo = test::small_topology();
  sim::Simulator sim;
  ihk::IhkManager mgr{sim, topo, topo.all_cores(), topo.system_cores(),
                      8ull << 30};
};

TEST_F(IhkTest, ReservationRules) {
  auto& part = mgr.partition();
  // Protected (system) cores cannot be reserved.
  EXPECT_FALSE(part.reserve_cpus(topo.system_cores()));
  // Application cores can.
  EXPECT_TRUE(part.reserve_cpus(topo.application_cores()));
  // Double reservation fails.
  EXPECT_FALSE(part.reserve_cpus(test::one_core(topo, 3)));
  EXPECT_EQ(part.reserved_cpus().count(), 6u);
  EXPECT_EQ(part.remaining_host_cpus(), topo.system_cores());
}

TEST_F(IhkTest, MemoryReservationBounds) {
  auto& part = mgr.partition();
  EXPECT_FALSE(part.reserve_memory(9ull << 30));  // more than the host has
  EXPECT_TRUE(part.reserve_memory(6ull << 30));
  EXPECT_EQ(part.remaining_host_memory(), 2ull << 30);
  EXPECT_FALSE(part.reserve_memory(3ull << 30));
  part.release_memory(6ull << 30);
  EXPECT_EQ(part.reserved_memory(), 0u);
}

TEST_F(IhkTest, OsInstanceLifecycle) {
  auto& part = mgr.partition();
  ASSERT_TRUE(part.reserve_cpus(topo.application_cores()));
  ASSERT_TRUE(part.reserve_memory(4ull << 30));

  // Creating an instance over un-reserved resources fails.
  EXPECT_EQ(mgr.create_os_instance(topo.system_cores(), 1ull << 30), -1);

  const int id =
      mgr.create_os_instance(topo.application_cores(), 4ull << 30);
  ASSERT_GE(id, 0);
  EXPECT_EQ(mgr.instance(id).status, ihk::OsInstanceStatus::kCreated);
  mgr.boot(id);
  EXPECT_EQ(mgr.instance(id).status, ihk::OsInstanceStatus::kBooted);
  // A running instance cannot be destroyed.
  EXPECT_THROW(mgr.destroy(id), SimError);
  mgr.shutdown(id);
  mgr.destroy(id);
  EXPECT_EQ(mgr.instance_count(), 0u);
  EXPECT_THROW(mgr.instance(id), SimError);
  // Resources returned to the host: can reserve again.
  EXPECT_TRUE(part.reserve_cpus(topo.application_cores()));
}

TEST_F(IhkTest, IkcDeliversAfterLatencyInOrder) {
  // `to` carries requests; its receiver answers each one on `back` from
  // inside the delivery callback.
  ihk::IkcChannel to(sim, "to", SimTime::us(1));
  ihk::IkcChannel back(sim, "back", SimTime::us(2));
  struct Got {
    std::uint64_t seq;
    SimTime when;
    ihk::IkcMessage message;
  };
  std::vector<Got> at_dest;
  std::vector<Got> at_source;
  to.set_receiver([&](const ihk::IkcMessage& m) {
    at_dest.push_back({m.seq, sim.now(), m});
    ihk::IkcMessage reply = m;
    reply.is_reply = true;
    back.post(reply);
  });
  back.set_receiver([&](const ihk::IkcMessage& m) {
    at_source.push_back({m.seq, sim.now(), m});
  });

  auto message = [](os::ThreadId sender) {
    ihk::IkcMessage m;
    m.sender = sender;
    m.request = os::SyscallRequest{
        os::Syscall::kStat, os::SyscallArgs{.arg0 = 100 + sender,
                                            .arg1 = 200 + sender}};
    m.span = 1000 + sender;
    return m;
  };
  // Three posts at t = 0, one at 500 ns.
  to.post(message(1));
  to.post(message(2));
  to.post(message(3));
  sim.run_until(SimTime::ns(500));
  to.post(message(4));
  while (sim.step()) {}

  const std::vector<SimTime> dest_when = {SimTime::us(1), SimTime::us(1),
                                          SimTime::us(1), SimTime::ns(1500)};
  ASSERT_EQ(at_dest.size(), 4u);
  ASSERT_EQ(at_source.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const os::ThreadId sender = i + 1;
    for (const Got* g : {&at_dest[i], &at_source[i]}) {
      EXPECT_EQ(g->seq, i + 1);  // each channel numbers its own posts
      EXPECT_EQ(g->message.sender, sender);
      EXPECT_EQ(g->message.request.no, os::Syscall::kStat);
      EXPECT_EQ(g->message.request.args.arg0, 100 + sender);
      EXPECT_EQ(g->message.request.args.arg1, 200 + sender);
      EXPECT_EQ(g->message.span, 1000 + sender);
    }
    EXPECT_FALSE(at_dest[i].message.is_reply);
    EXPECT_TRUE(at_source[i].message.is_reply);
    EXPECT_EQ(at_dest[i].when, dest_when[i]);
    EXPECT_EQ(at_dest[i].message.sent_at, dest_when[i] - SimTime::us(1));
    EXPECT_EQ(at_source[i].when, dest_when[i] + SimTime::us(2));
    EXPECT_EQ(at_source[i].message.sent_at, dest_when[i]);
  }
  EXPECT_EQ(to.messages_posted(), 4u);
  EXPECT_EQ(to.messages_delivered(), 4u);
  EXPECT_EQ(back.messages_posted(), 4u);
  EXPECT_EQ(back.messages_delivered(), 4u);
}

// Thousands of messages in flight on one channel: bursts that grow from
// one instant to the next, 100 ns apart against a 10 us latency, so the
// in-flight queue wraps (deliveries start while posts continue) and grows
// several times while wrapped.
TEST_F(IhkTest, IkcOrderSurvivesDeepBacklog) {
  ihk::IkcChannel ch(sim, "deep", SimTime::us(10));
  std::vector<ihk::IkcMessage> got;
  std::vector<SimTime> got_at;
  ch.set_receiver([&](const ihk::IkcMessage& m) {
    got.push_back(m);
    got_at.push_back(sim.now());
  });
  auto message = [](std::uint64_t i) {
    ihk::IkcMessage m;
    m.sender = i;
    m.request = os::SyscallRequest{
        i % 2 == 0 ? os::Syscall::kStat : os::Syscall::kRead,
        os::SyscallArgs{.arg0 = 3 * i, .arg1 = 5 * i, .arg2 = 7 * i}};
    m.span = 1'000'000 + i;
    return m;
  };
  std::uint64_t posted = 0;
  std::uint64_t max_inflight = 0;
  for (int k = 0; k < 600; ++k) {
    sim.run_until(SimTime::ns(100 * k));
    for (int b = 0; b < 1 + k / 8; ++b) ch.post(message(++posted));
    max_inflight =
        std::max(max_inflight, ch.messages_posted() - ch.messages_delivered());
  }
  while (sim.step()) {}

  EXPECT_GE(max_inflight, 1000u);
  ASSERT_EQ(got.size(), posted);
  EXPECT_EQ(ch.messages_delivered(), posted);
  for (std::uint64_t i = 1; i <= posted; ++i) {
    const ihk::IkcMessage& m = got[i - 1];
    const ihk::IkcMessage want = message(i);
    ASSERT_EQ(m.seq, i);
    ASSERT_EQ(m.sender, want.sender);
    ASSERT_EQ(m.request.no, want.request.no);
    ASSERT_EQ(m.request.args.arg0, want.request.args.arg0);
    ASSERT_EQ(m.request.args.arg1, want.request.args.arg1);
    ASSERT_EQ(m.request.args.arg2, want.request.args.arg2);
    ASSERT_EQ(m.span, want.span);
    ASSERT_EQ(got_at[i - 1], m.sent_at + SimTime::us(10));
  }
}

TEST_F(IhkTest, IkcWithoutReceiverFails) {
  ihk::IkcChannel ch(sim, "bad", SimTime::us(1));
  EXPECT_THROW(ch.post(ihk::IkcMessage{}), SimError);
}

TEST(MultiKernelAssembly, BothKernelsShareTheChip) {
  test::MultiKernelNode node;
  EXPECT_EQ(node.bus.attached_kernels(), 2u);
  EXPECT_EQ(node.linux->owned_cores().count(), 2u);
  EXPECT_EQ(node.lwk->owned_cores().count(), 6u);
  EXPECT_FALSE(node.linux->owned_cores().intersects(node.lwk->owned_cores()));
  EXPECT_EQ(node.ihk_mgr->instance(node.os_id).status,
            ihk::OsInstanceStatus::kBooted);
}

TEST(MultiKernelAssembly, LinuxBroadcastTlbiStallsLwkCores) {
  using namespace hpcos::literals;
  test::MultiKernelNode node(
      {}, [](linuxk::LinuxConfig& c) {
        c.tlb_flush = linuxk::TlbFlushMode::kBroadcast;
      });
  // LWK compute victim.
  SimTime done;
  int phase = 0;
  test::spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  // A Linux-side process storm of 500 flushes reaches across the kernel
  // boundary: broadcast TLBI covers the whole inner-sharable domain.
  const os::Pid pid = node.linux->create_process(os::ProcessAttrs{});
  node.linux->tlb_shootdown(node.linux->process(pid), /*initiator=*/0, 500);
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 100_us);  // 500 x 200 ns
}

}  // namespace
}  // namespace hpcos
