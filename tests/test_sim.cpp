// Unit tests: discrete-event simulator and trace buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <tuple>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "test_support.h"

namespace hpcos::sim {
namespace {

using namespace hpcos::literals;

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(3_us, [&] { order.push_back(3); });
  s.schedule_at(1_us, [&] { order.push_back(1); });
  s.schedule_at(2_us, [&] { order.push_back(2); });
  while (s.step()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_us);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, SameTimestampFifoBySchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(1_us, [&] { order.push_back(1); });
  s.schedule_at(1_us, [&] { order.push_back(2); });
  s.schedule_at(1_us, [&] { order.push_back(3); });
  while (s.step()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(1_us, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double cancel reports false
  while (s.step()) {}
  EXPECT_FALSE(fired);
}

TEST(Simulator, ScheduleFromWithinEvent) {
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_after(1_us, chain);
  };
  s.schedule_at(SimTime::zero(), chain);
  while (s.step()) {}
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 4_us);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(2_us, [&] { ++fired; });
  s.schedule_at(10_us, [&] { ++fired; });
  const std::size_t n = s.run_until(5_us);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_us);
  EXPECT_TRUE(s.has_pending());
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator s;
  s.schedule_at(5_us, [] {});
  while (s.step()) {}
  EXPECT_THROW(s.schedule_at(1_us, [] {}), SimError);
}

TEST(Simulator, EmptyCallableThrows) {
  Simulator s;
  EXPECT_THROW(s.schedule_at(1_us, std::function<void()>{}), SimError);
  EXPECT_THROW(s.schedule_at(1_us, EventFn{}), SimError);
  void (*none)() = nullptr;
  EXPECT_THROW(s.schedule_at(1_us, none), SimError);
  EXPECT_FALSE(s.has_pending());
  EXPECT_EQ(s.queue_telemetry().pushes, 0u);
}

TEST(Simulator, StaleIdDoesNotCancelTheEventReusingItsSlot) {
  Simulator s;
  int a_fired = 0;
  int b_fired = 0;
  int c_fired = 0;
  const EventId a = s.schedule_at(1_us, [&] { ++a_fired; });
  ASSERT_TRUE(s.step());
  // b takes the slot a's fire freed; a's id must not reach b.
  const EventId b = s.schedule_at(2_us, [&] { ++b_fired; });
  ASSERT_EQ(b.slot, a.slot);
  EXPECT_FALSE(s.cancel(a));
  // The same after a cancel: c takes the slot of cancelled b.
  EXPECT_TRUE(s.cancel(b));
  const EventId c = s.schedule_at(3_us, [&] { ++c_fired; });
  ASSERT_EQ(c.slot, b.slot);
  EXPECT_FALSE(s.cancel(a));
  EXPECT_FALSE(s.cancel(b));
  EXPECT_FALSE(s.cancel(EventId{}));
  EXPECT_FALSE(s.cancel(EventId{c.seq, c.slot + 1}));  // no such slot
  EXPECT_EQ(s.pending_count(), 1u);
  while (s.step()) {}
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 0);
  EXPECT_EQ(c_fired, 1);
  EXPECT_EQ(s.queue_telemetry().cancels, 1u);
}

// Each ending runs with a capture that EventFn keeps inline and with one
// that spills to the heap, and schedules enough copies that the slot
// table grows (relocating the pending captures) before the ending.
TEST(Simulator, CapturedStateIsDestroyedExactlyOnce) {
  enum class Ending { kFired, kCancelled, kPendingAtDestruction };
  constexpr long kEvents = 100;
  auto small = [](std::shared_ptr<long> token) {
    return [token] { ++*token; };
  };
  auto large = [](std::shared_ptr<long> token) {
    return [token, payload = std::array<char, 128>{}] {
      *token += 1 + payload[0];
    };
  };
  static_assert(sizeof(small(nullptr)) <= EventFn::kInlineBytes);
  static_assert(sizeof(large(nullptr)) > EventFn::kInlineBytes);

  auto check = [&](auto make, const char* capture) {
    for (const Ending ending : {Ending::kFired, Ending::kCancelled,
                                Ending::kPendingAtDestruction}) {
      SCOPED_TRACE(std::string(capture) + " capture, ending " +
                   std::to_string(static_cast<int>(ending)));
      const auto token = std::make_shared<long>(0);
      {
        Simulator s;
        std::vector<EventId> ids;
        for (long i = 0; i < kEvents; ++i) {
          ids.push_back(s.schedule_at(SimTime::us(i + 1), make(token)));
        }
        EXPECT_EQ(token.use_count(), 1 + kEvents);
        switch (ending) {
          case Ending::kFired:
            EXPECT_TRUE(s.step());
            EXPECT_EQ(token.use_count(), kEvents);  // freed right after it ran
            while (s.step()) {}
            EXPECT_EQ(*token, kEvents);
            EXPECT_EQ(token.use_count(), 1);
            break;
          case Ending::kCancelled:
            for (const EventId id : ids) EXPECT_TRUE(s.cancel(id));
            EXPECT_EQ(token.use_count(), 1);  // destroyed at cancel time
            while (s.step()) {}
            EXPECT_EQ(*token, 0);
            break;
          case Ending::kPendingAtDestruction:
            EXPECT_EQ(token.use_count(), 1 + kEvents);
            break;
        }
      }
      EXPECT_EQ(token.use_count(), 1);
    }
  };
  check(small, "inline");
  check(large, "heap");
}

// The queue's contract as a plain model: records kept sorted by
// (time, seq). A cancelled record stays behind as a ghost until it reaches
// the front, where it is dropped and counted as skipped.
struct ReferenceQueue {
  struct Record {
    std::int64_t time;
    std::uint64_t seq;
    std::int64_t child_delay;  // < 0: the handler schedules nothing
    bool live;
  };
  std::vector<Record> records;
  std::int64_t now = 0;
  std::uint64_t next_seq = 1;
  std::size_t live = 0;
  QueueTelemetry telemetry;
  std::vector<std::uint64_t> fired;

  void schedule(std::int64_t t, std::int64_t child_delay) {
    const Record r{t, next_seq++, child_delay, true};
    const auto at = std::upper_bound(
        records.begin(), records.end(), r,
        [](const Record& x, const Record& y) {
          return std::tie(x.time, x.seq) < std::tie(y.time, y.seq);
        });
    records.insert(at, r);
    ++live;
    ++telemetry.pushes;
    telemetry.max_depth = std::max(telemetry.max_depth, live);
  }
  bool cancel(std::uint64_t seq) {
    for (Record& r : records) {
      if (r.seq != seq || !r.live) continue;
      r.live = false;
      --live;
      ++telemetry.cancels;
      return true;
    }
    return false;
  }
  void drop_front_ghosts() {
    while (!records.empty() && !records.front().live) {
      records.erase(records.begin());
      ++telemetry.skipped;
    }
  }
  bool step() {
    drop_front_ghosts();
    if (records.empty()) return false;
    const Record r = records.front();
    records.erase(records.begin());
    --live;
    now = r.time;
    ++telemetry.pops;
    fired.push_back(r.seq);
    if (r.child_delay >= 0) schedule(now + r.child_delay, -1);
    return true;
  }
  std::size_t run_until(std::int64_t t_end) {
    std::size_t n = 0;
    for (;;) {
      drop_front_ghosts();
      if (records.empty() || records.front().time > t_end) break;
      step();
      ++n;
    }
    now = t_end;
    return n;
  }
};

// The Simulator driven the same way: the handler of event `label` logs
// its label and, when asked, schedules one child child_delay after now().
struct QueueUnderTest {
  Simulator sim;
  std::vector<EventId> ids;  // ids[label - 1]
  std::vector<std::uint64_t> fired;

  void schedule(std::int64_t t, std::int64_t child_delay, bool spill) {
    const std::uint64_t label = ids.size() + 1;
    auto fire = [this, label, child_delay] {
      fired.push_back(label);
      if (child_delay >= 0) {
        schedule(sim.now().count_ns() + child_delay, -1, false);
      }
    };
    if (spill) {
      ids.push_back(sim.schedule_at(
          SimTime::ns(t),
          [fire, label, pad = std::array<std::uint64_t, 8>{label}] {
            EXPECT_EQ(pad[0], label);  // the spilled capture is intact
            fire();
          }));
    } else {
      ids.push_back(sim.schedule_at(SimTime::ns(t), fire));
    }
  }
};

TEST(Simulator, MatchesReferenceQueueUnderRandomOps) {
  constexpr std::int64_t kFar = std::int64_t{1} << 50;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RngStream rng(Seed{seed}, 0x51);
    QueueUnderTest got;
    ReferenceQueue want;
    std::vector<bool> cancelled(1, false);  // by label
    // Cancels by what the id pointed at: live, fired, cancelled before,
    // and stale (fired or cancelled, its slot now held by a live event).
    std::array<int, 4> cancel_kinds{};
    auto delay = [&]() -> std::int64_t {
      switch (rng.uniform_index(4)) {
        case 0:
          return 0;  // t == now()
        case 1:  // a coarse grid, so timestamps collide
          return 1000 * static_cast<std::int64_t>(rng.uniform_index(8));
        case 2:
          return static_cast<std::int64_t>(rng.uniform_index(100'000));
        default:
          return kFar + static_cast<std::int64_t>(rng.uniform_index(1000));
      }
    };
    auto same = [&]() -> ::testing::AssertionResult {
      const QueueTelemetry& g = got.sim.queue_telemetry();
      const QueueTelemetry& w = want.telemetry;
      if (got.fired != want.fired) {
        return ::testing::AssertionFailure()
               << "fire order differs (" << got.fired.size() << " vs "
               << want.fired.size() << " fired)";
      }
      if (got.sim.pending_count() != want.live ||
          got.sim.has_pending() != (want.live != 0)) {
        return ::testing::AssertionFailure()
               << "pending " << got.sim.pending_count() << " vs "
               << want.live;
      }
      if (got.sim.now().count_ns() != want.now) {
        return ::testing::AssertionFailure()
               << "now " << got.sim.now().count_ns() << " vs " << want.now;
      }
      if (std::tie(g.pushes, g.pops, g.cancels, g.skipped, g.max_depth) !=
          std::tie(w.pushes, w.pops, w.cancels, w.skipped, w.max_depth)) {
        return ::testing::AssertionFailure()
               << "telemetry pushes/pops/cancels/skipped/max_depth "
               << g.pushes << "/" << g.pops << "/" << g.cancels << "/"
               << g.skipped << "/" << g.max_depth << " vs " << w.pushes
               << "/" << w.pops << "/" << w.cancels << "/" << w.skipped
               << "/" << w.max_depth;
      }
      return ::testing::AssertionSuccess();
    };

    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t pick = rng.uniform_index(100);
      if (op < 300 || pick < 40) {
        const std::int64_t t = want.now + delay();
        const std::int64_t child =
            rng.bernoulli(0.3) ? (rng.bernoulli(0.5) ? 0 : delay()) : -1;
        got.schedule(t, child, rng.bernoulli(0.25));
        want.schedule(t, child);
      } else if (pick < 62) {
        const std::uint64_t label = 1 + rng.uniform_index(want.next_seq - 1);
        const EventId id = got.ids[label - 1];
        int kind = 0;
        if (std::none_of(want.records.begin(), want.records.end(),
                         [&](const ReferenceQueue::Record& r) {
                           return r.live && r.seq == label;
                         })) {
          const bool slot_taken = std::any_of(
              want.records.begin(), want.records.end(),
              [&](const ReferenceQueue::Record& r) {
                return r.live && got.ids[r.seq - 1].slot == id.slot;
              });
          kind = slot_taken ? 3 : cancelled[label] ? 2 : 1;
        }
        ++cancel_kinds[static_cast<std::size_t>(kind)];
        const bool expected = want.cancel(label);
        ASSERT_EQ(got.sim.cancel(id), expected) << "op " << op;
        if (expected) cancelled[label] = true;
      } else if (pick < 92) {
        ASSERT_EQ(got.sim.step(), want.step()) << "op " << op;
      } else {
        const std::int64_t t_end =
            want.now + (rng.bernoulli(0.05)
                            ? kFar
                            : static_cast<std::int64_t>(
                                  rng.uniform_index(20'000)));
        ASSERT_EQ(got.sim.run_until(SimTime::ns(t_end)),
                  want.run_until(t_end))
            << "op " << op;
      }
      cancelled.resize(want.next_seq, false);
      ASSERT_TRUE(same()) << "op " << op;
    }
    for (const int n : cancel_kinds) EXPECT_GT(n, 0);
    EXPECT_GT(want.telemetry.skipped, 0u);
    EXPECT_GT(want.telemetry.max_depth, 100u);
  }
}

// Fire order, clock, depth and every telemetry field agree.
::testing::AssertionResult SameAsReference(const QueueUnderTest& got,
                                           const ReferenceQueue& want) {
  const QueueTelemetry& g = got.sim.queue_telemetry();
  const QueueTelemetry& w = want.telemetry;
  if (got.fired != want.fired) {
    return ::testing::AssertionFailure()
           << "fire order differs (" << got.fired.size() << " vs "
           << want.fired.size() << " fired)";
  }
  if (got.sim.pending_count() != want.live ||
      got.sim.has_pending() != (want.live != 0)) {
    return ::testing::AssertionFailure()
           << "pending " << got.sim.pending_count() << " vs " << want.live;
  }
  if (got.sim.now().count_ns() != want.now) {
    return ::testing::AssertionFailure()
           << "now " << got.sim.now().count_ns() << " vs " << want.now;
  }
  if (std::tie(g.pushes, g.pops, g.cancels, g.skipped, g.max_depth) !=
      std::tie(w.pushes, w.pops, w.cancels, w.skipped, w.max_depth)) {
    return ::testing::AssertionFailure()
           << "telemetry pushes/pops/cancels/skipped/max_depth " << g.pushes
           << "/" << g.pops << "/" << g.cancels << "/" << g.skipped << "/"
           << g.max_depth << " vs " << w.pushes << "/" << w.pops << "/"
           << w.cancels << "/" << w.skipped << "/" << w.max_depth;
  }
  return ::testing::AssertionSuccess();
}

// The radix queue's buckets cover the bits in which an event time differs
// from the last popped one. Delays drawn log-uniformly from 1 ns to 2^62 ns
// make pushed times differ from now() first at every bit a non-negative
// time has, so every reachable bucket fills; bursts at one nanosecond make
// refills sort records by seq; cancels at the front leave ghosts where the
// next pop looks; and a run_until() that stops below a cancelled front,
// followed by a schedule_at() between t_end and that front, schedules below
// the time the queue last looked at.
TEST(Simulator, MatchesReferenceQueueAcrossTimeScales) {
  // Room above the latest time for a fired event's child (< 2^20 ns).
  constexpr std::int64_t kHorizon =
      std::numeric_limits<std::int64_t>::max() - (std::int64_t{1} << 20);
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RngStream rng(Seed{seed}, 0x52);
    QueueUnderTest got;
    ReferenceQueue want;
    // Highest bit in which a pushed time differs from now(), plus one.
    std::vector<bool> widths(64, false);
    int bursts = 0;
    int front_cancels = 0;
    int lowered = 0;
    // 2^e plus a uniform part below 2^e, e uniform in [0, max_exp],
    // clamped to the horizon.
    auto delay = [&](int max_exp = 62) -> std::int64_t {
      const auto e = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(max_exp) + 1));
      const std::int64_t low = std::int64_t{1} << e;
      const auto d =
          low + static_cast<std::int64_t>(
                    rng.uniform_index(static_cast<std::uint64_t>(low)));
      return std::max(std::int64_t{0}, std::min(d, kHorizon - want.now));
    };
    auto schedule = [&](std::int64_t t) {
      const std::int64_t child =
          rng.bernoulli(0.2)
              ? static_cast<std::int64_t>(rng.uniform_index(1u << 20))
              : -1;
      widths[static_cast<std::size_t>(std::bit_width(
          static_cast<std::uint64_t>(t ^ want.now)))] = true;
      got.schedule(t, child, false);
      want.schedule(t, child);
    };
    auto cancel = [&](std::uint64_t label) {
      const bool expected = want.cancel(label);
      EXPECT_EQ(got.sim.cancel(got.ids[label - 1]), expected);
      return expected;
    };
    // The earliest live reference record, or nullptr.
    auto live_front = [&]() -> const ReferenceQueue::Record* {
      for (const ReferenceQueue::Record& r : want.records) {
        if (r.live) return &r;
      }
      return nullptr;
    };

    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t pick = op < 200 ? 0 : rng.uniform_index(100);
      if (pick < 35) {
        schedule(want.now + (rng.bernoulli(0.1) ? 0 : delay()));
      } else if (pick < 45) {
        // A burst at one nanosecond, often already occupied.
        const std::int64_t t = want.now + (rng.bernoulli(0.3) ? 0 : delay());
        const auto n = 2 + rng.uniform_index(20);
        for (std::uint64_t i = 0; i < n; ++i) schedule(t);
        ++bursts;
      } else if (pick < 55) {
        if (const ReferenceQueue::Record* f = live_front()) {
          ASSERT_TRUE(cancel(f->seq)) << "op " << op;
          ++front_cancels;
        }
      } else if (pick < 60) {
        cancel(1 + rng.uniform_index(want.next_seq - 1));
      } else if (pick < 88) {
        ASSERT_EQ(got.sim.step(), want.step()) << "op " << op;
      } else if (pick < 95) {
        // Up to 2^41 ns, so that the clock stays far below the horizon
        // and later delays keep their full range.
        const std::int64_t t_end =
            want.now + (rng.bernoulli(0.2) ? delay(40)
                                           : static_cast<std::int64_t>(
                                                 rng.uniform_index(1000)));
        ASSERT_EQ(got.sim.run_until(SimTime::ns(t_end)),
                  want.run_until(t_end))
            << "op " << op;
      } else {
        // Cancel the front, stop below it, then schedule between t_end
        // and the cancelled front.
        const ReferenceQueue::Record* f = live_front();
        if (f == nullptr || f->time <= want.now + 1) continue;
        const std::int64_t front_time = f->time;
        ASSERT_TRUE(cancel(f->seq)) << "op " << op;
        const std::int64_t t_end =
            want.now + static_cast<std::int64_t>(rng.uniform_index(
                           static_cast<std::uint64_t>(front_time - want.now)));
        ASSERT_EQ(got.sim.run_until(SimTime::ns(t_end)),
                  want.run_until(t_end))
            << "op " << op;
        ASSERT_TRUE(SameAsReference(got, want)) << "op " << op;
        schedule(t_end + static_cast<std::int64_t>(rng.uniform_index(
                             static_cast<std::uint64_t>(front_time - t_end))));
        ++lowered;
      }
      ASSERT_TRUE(SameAsReference(got, want)) << "op " << op;
    }
    // Drain: every remaining event fires in the reference order.
    while (want.step()) ASSERT_TRUE(got.sim.step());
    EXPECT_FALSE(got.sim.step());
    ASSERT_TRUE(SameAsReference(got, want));

    EXPECT_EQ(std::count(widths.begin(), widths.end(), true), 64);
    EXPECT_GT(bursts, 50);
    EXPECT_GT(front_cancels, 100);
    EXPECT_GT(lowered, 50);
    EXPECT_GT(want.telemetry.skipped, 100u);
  }
}

TEST(TraceBuffer, DisabledBufferCountsButStoresNothing) {
  TraceBuffer t(0);
  t.record(TraceRecord{.time = 1_us, .core = 0,
                       .category = TraceCategory::kIrq,
                       .duration = 1_us, .label = "x"});
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 1u);
}

TEST(TraceBuffer, RingKeepsNewestAndOrders) {
  TraceBuffer t(3);
  for (int i = 0; i < 5; ++i) {
    t.record(TraceRecord{.time = SimTime::us(i), .core = 0,
                         .category = TraceCategory::kUser,
                         .duration = SimTime::zero(),
                         .label = std::to_string(i)});
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].label, "2");
  EXPECT_EQ(snap[2].label, "4");
  EXPECT_EQ(t.dropped(), 2u);
}

}  // namespace
}  // namespace hpcos::sim
