// Host-side self-profiler (obs/prof) and its reporting glue.
//
// What must hold (DESIGN "Host-side self-profiling"):
//   * scope accounting closes: per-name self times subtract nested time,
//     sum(self) == sum of root durations, exactly;
//   * merged scope *counts* are a pure function of the simulated work —
//     bit-identical across host thread counts (times are host-dependent
//     and never asserted);
//   * the folded-stack view is valid flamegraph input and round-trips
//     through sim::parse_folded_stack;
//   * a disabled profiler records nothing;
//   * the DES queue telemetry / handler attribution, the scheduler
//     health counters, the allocation counters, and the OpenMetrics round
//     trip of the profiler's deterministic face all behave.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fwq_campaign.h"
#include "common/parallel.h"
#include "common/sim_time.h"
#include "noise/profiles.h"
#include "obs/prof/counters.h"
#include "obs/prof/mem.h"
#include "obs/prof/prof.h"
#include "obs/prof_report.h"
#include "obs/timeseries/openmetrics.h"
#include "sim/folded_stack.h"
#include "sim/simulator.h"
#include "tools/cli_util.h"
#include "test_support.h"

namespace hpcos {
namespace {

namespace prof = obs::prof;

// Every test starts and ends with a quiesced, disabled, empty profiler so
// tests compose in any order within the shared test binary.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::set_enabled(false);
    prof::reset();
  }
  void TearDown() override {
    prof::set_enabled(false);
    prof::reset();
  }
};

std::map<std::string, std::uint64_t> scope_counts(const prof::Profile& p) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& s : p.scopes) counts[s.name] = s.count;
  return counts;
}

TEST_F(ProfTest, ScopeAccountingCloses) {
  prof::set_enabled(true);
  {
    PROF_SCOPE("t.root");
    { PROF_SCOPE("t.child"); }
    { PROF_SCOPE("t.child"); }
    {
      PROF_SCOPE("t.child");
      PROF_SCOPE("t.leaf");
    }
  }
  prof::set_enabled(false);
  const prof::Profile p = prof::collect();

  EXPECT_EQ(p.events, 5u);
  EXPECT_EQ(p.dropped, 0u);
  ASSERT_EQ(p.scopes.size(), 3u);

  const prof::ScopeStat* root = p.find("t.root");
  const prof::ScopeStat* child = p.find("t.child");
  const prof::ScopeStat* leaf = p.find("t.leaf");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(root->count, 1u);
  EXPECT_EQ(child->count, 3u);
  EXPECT_EQ(leaf->count, 1u);

  // Self subtracts nested time at every level; everything nests under the
  // one root instance, so the books must balance exactly.
  EXPECT_EQ(root->self_ns, root->total_ns - child->total_ns);
  EXPECT_EQ(child->self_ns, child->total_ns - leaf->total_ns);
  EXPECT_EQ(leaf->self_ns, leaf->total_ns);
  EXPECT_EQ(p.root_total_ns, root->total_ns);
  EXPECT_EQ(p.sum_self_ns(), p.root_total_ns);
}

TEST_F(ProfTest, DisabledProfilerRecordsNothing) {
  ASSERT_FALSE(prof::enabled());
  {
    PROF_SCOPE("t.invisible");
    { PROF_SCOPE("t.invisible.child"); }
  }
  const prof::Profile p = prof::collect();
  EXPECT_EQ(p.events, 0u);
  EXPECT_TRUE(p.scopes.empty());
  EXPECT_TRUE(p.folded.empty());
  EXPECT_EQ(p.root_total_ns, 0);
}

TEST_F(ProfTest, FoldedStackValidatesAndRoundTrips) {
  prof::set_enabled(true);
  {
    PROF_SCOPE("t.a");
    { PROF_SCOPE("t.b"); }
  }
  { PROF_SCOPE("t.a"); }
  prof::set_enabled(false);
  const prof::Profile p = prof::collect();

  EXPECT_EQ(sim::validate_folded_stack(p.folded), "");

  const auto parsed = sim::parse_folded_stack(p.folded);
  std::string rewritten;
  std::int64_t parsed_total = 0;
  for (const auto& [path, value] : parsed) {
    rewritten += path + " " + std::to_string(value) + "\n";
    parsed_total += value;
  }
  EXPECT_EQ(rewritten, p.folded);
  // Folded values are self times, so they sum to the same total the
  // ranked table accounts for (zero-self paths are omitted, not lost).
  EXPECT_EQ(parsed_total, p.sum_self_ns());

  bool found_nested = false;
  for (const auto& [path, value] : parsed) {
    if (path == "t.a;t.b") {
      found_nested = true;
      EXPECT_GE(value, 0);
    }
  }
  EXPECT_TRUE(found_nested);
}

TEST_F(ProfTest, FullBufferDropsParentsAndAccountingStillCloses) {
  // A full buffer keeps the first scopes to exit and drops the rest.
  // Children exit before their parent, so a root can be dropped while its
  // leaves are kept; those orphans become roots, and the books still
  // balance exactly.
  prof::set_thread_buffer_capacity(16);
  prof::set_enabled(true);
  std::thread([] {  // a fresh thread registers a fresh 16-event buffer
    for (int root = 0; root < 4; ++root) {
      PROF_SCOPE("t.full.root");
      for (int leaf = 0; leaf < 8; ++leaf) {
        PROF_SCOPE("t.full.leaf");
      }
    }
  }).join();
  prof::set_enabled(false);
  prof::set_thread_buffer_capacity(std::size_t{1} << 16);
  const prof::Profile p = prof::collect();

  // Root 0 and its 8 leaves, then 7 of root 1's leaves fill the buffer.
  EXPECT_EQ(p.events, 16u);
  EXPECT_EQ(p.dropped, 20u);
  ASSERT_NE(p.find("t.full.root"), nullptr);
  ASSERT_NE(p.find("t.full.leaf"), nullptr);
  EXPECT_EQ(p.find("t.full.root")->count, 1u);
  EXPECT_EQ(p.find("t.full.leaf")->count, 15u);
  EXPECT_EQ(p.sum_self_ns(), p.root_total_ns);
  EXPECT_EQ(sim::validate_folded_stack(p.folded), "");
}

TEST_F(ProfTest, CampaignScopeCountsIdenticalAcrossThreadCounts) {
  // The determinism contract, pointed at the profiler: the campaign's
  // scope fire counts (one fwq.shard per shard, one fwq.merge) must be
  // bit-identical whatever the host thread count. Times are not compared.
  const auto profile = noise::fugaku_linux_profile();
  auto run = [&](std::size_t threads) {
    prof::reset();
    prof::set_enabled(true);
    cluster::FwqCampaignConfig cfg;
    cfg.nodes = 48;
    cfg.app_cores = 8;
    cfg.duration_per_core = SimTime::sec(60);
    cfg.nodes_per_shard = 8;
    cfg.threads = threads;
    cfg.seed = Seed{0xBEEF};
    cluster::run_fwq_campaign(profile, cfg);
    prof::set_enabled(false);
    return scope_counts(prof::collect());
  };
  const auto serial = run(1);
  ASSERT_NE(serial.find("fwq.shard"), serial.end());
  EXPECT_EQ(serial.at("fwq.shard"), 6u);  // ceil(48 / 8)
  EXPECT_EQ(serial.at("fwq.merge"), 1u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST_F(ProfTest, SimulatorQueueTelemetryAndHandlerAttribution) {
  prof::set_enabled(true);
  sim::Simulator s;

  std::size_t probe_max_depth = 0;
  std::size_t probe_calls = 0;
  s.set_depth_probe([&](SimTime, std::size_t depth) {
    ++probe_calls;
    probe_max_depth = std::max(probe_max_depth, depth);
  });

  s.schedule_after(SimTime::us(1), [] {}, "test.a");
  s.schedule_after(SimTime::us(2), [] {}, "test.a");
  const auto doomed = s.schedule_after(SimTime::us(3), [] {}, "test.b");
  EXPECT_TRUE(s.cancel(doomed));
  s.run_until(SimTime::us(10));
  prof::set_enabled(false);

  const sim::QueueTelemetry& qt = s.queue_telemetry();
  EXPECT_EQ(qt.pushes, 3u);
  EXPECT_EQ(qt.pops, 2u);
  EXPECT_EQ(qt.cancels, 1u);
  EXPECT_EQ(qt.skipped, 1u);  // the cancelled heap entry, discarded on pop
  EXPECT_EQ(qt.max_depth, 3u);
  EXPECT_GE(probe_calls, 3u);  // after each push and each executed event
  EXPECT_EQ(probe_max_depth, 3u);

  // Handler attribution: each firing is one des.fire.<tag> profiler
  // scope; test.b never fired.
  const auto counts = scope_counts(prof::collect());
  ASSERT_NE(counts.find("des.fire.test.a"), counts.end());
  EXPECT_EQ(counts.at("des.fire.test.a"), 2u);
  EXPECT_EQ(counts.count("des.fire.test.b"), 0u);
}

TEST_F(ProfTest, SchedulerHealthCounters) {
  // The scheduler's health is host-counter table entries. Group and
  // chunk counts are exact whichever threads run the chunks: the chunk
  // rule is max(1, count / (participants * 8)).
  auto count = [](const char* name) {
    return prof::host_counter_snapshot().value(name);
  };
  const std::size_t participants =
      std::min<std::size_t>(4, parallel_capacity());
  const std::size_t chunk =
      std::max<std::size_t>(1, 64 / (participants * 8));
  const std::uint64_t groups_before = count("parallel.groups");
  const std::uint64_t chunks_before = count("parallel.chunks");
  const std::uint64_t steals_before = count("parallel.steals");
  std::atomic<std::uint64_t> acc{0};
  parallel_for(64, [&](std::size_t i) {
    acc.fetch_add(i, std::memory_order_relaxed);
  }, 4);

  EXPECT_EQ(acc.load(), 64u * 63u / 2u);
  const std::uint64_t flat_chunks = count("parallel.chunks") - chunks_before;
  EXPECT_EQ(count("parallel.groups") - groups_before, 1u);
  EXPECT_EQ(flat_chunks, (64 + chunk - 1) / chunk);
  EXPECT_LE(count("parallel.steals") - steals_before, flat_chunks);
  EXPECT_EQ(count("parallel.backlog"), 0u);
  // The dispatch left all of its chunks unclaimed at once.
  EXPECT_GE(count("parallel.max_backlog"), flat_chunks);

  // Nested: each of the two outer indices issues one 32-index group.
  const std::uint64_t nested_before = count("parallel.nested_groups");
  const std::uint64_t nested_chunks_before = count("parallel.chunks");
  const std::uint64_t nested_steals_before = count("parallel.steals");
  parallel_for(2, [&](std::size_t) {
    parallel_for(32, [&](std::size_t i) {
      acc.fetch_add(i, std::memory_order_relaxed);
    }, 2);
  }, 2);
  EXPECT_EQ(count("parallel.nested_groups") - nested_before, 2u);
  EXPECT_LE(count("parallel.steals") - nested_steals_before,
            count("parallel.chunks") - nested_chunks_before);
  EXPECT_EQ(count("parallel.backlog"), 0u);
}

TEST_F(ProfTest, AllocCountersAndHostSample) {
  const prof::AllocCounter c("test.prof.mem");
  ASSERT_NE(c.bytes, nullptr);
  ASSERT_NE(c.events, nullptr);
  // The pair is two table counters; find-or-create returns the same
  // stable pointers.
  EXPECT_EQ(prof::host_counter("mem.test.prof.mem.bytes"), c.bytes);
  EXPECT_EQ(prof::host_counter("mem.test.prof.mem.events"), c.events);
  EXPECT_EQ(prof::AllocCounter("test.prof.mem").bytes, c.bytes);
  const std::uint64_t bytes_before = c.bytes->value();
  const std::uint64_t events_before = c.events->value();
  c.add(123);
  c.add(77);
  EXPECT_EQ(c.bytes->value() - bytes_before, 200u);
  EXPECT_EQ(c.events->value() - events_before, 2u);

  const prof::CounterSnapshot snap = prof::host_counter_snapshot();
  EXPECT_EQ(snap.value("mem.test.prof.mem.bytes"), c.bytes->value());
  EXPECT_EQ(snap.value("mem.test.prof.mem.events"), c.events->value());

  const prof::HostMemory mem = prof::sample_host_memory();
  ASSERT_TRUE(mem.valid);  // procfs is always there on the CI hosts
  EXPECT_GT(mem.rss_bytes, 0u);
  EXPECT_GE(mem.peak_rss_bytes, mem.rss_bytes);
  EXPECT_GE(mem.vm_bytes, mem.rss_bytes);
}

TEST_F(ProfTest, ProfileCountsRoundTripThroughOpenMetrics) {
  prof::set_enabled(true);
  {
    PROF_SCOPE("t.om.root");
    { PROF_SCOPE("t.om.child"); }
    { PROF_SCOPE("t.om.child"); }
  }
  prof::set_enabled(false);
  const prof::Profile p = prof::collect();

  // The profile's deterministic face is its gated prof.<scope>.count
  // report metrics; fold those into a name-sorted counter snapshot.
  obs::BenchReport report("om_bench", true);
  obs::add_profile_metrics(report, p);
  prof::CounterSnapshot snap;
  for (const obs::BenchMetric& m : report.metrics()) {
    if (obs::is_host_metric(m.name)) continue;
    snap.counters.push_back({m.name, static_cast<std::uint64_t>(m.value)});
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  EXPECT_EQ(snap.value("prof.t.om.child.count"), 2u);
  EXPECT_EQ(snap.value("prof.t.om.root.count"), 1u);

  // Exposition -> strict parse -> exact counter recovery (counts are
  // integers, so the round trip is lossless).
  const std::string text = obs::ts::openmetrics_text(snap);
  const auto samples = obs::ts::parse_openmetrics(text);
  std::map<std::string, double> parsed;
  for (const auto& s : samples) {
    if (s.metric == "hpcos_counter_total") parsed[s.label("name")] = s.value;
  }
  ASSERT_FALSE(snap.counters.empty());
  for (const auto& entry : snap.counters) {
    ASSERT_NE(parsed.find(entry.name), parsed.end()) << entry.name;
    EXPECT_EQ(parsed.at(entry.name), static_cast<double>(entry.value))
        << entry.name;
  }
}

TEST(CliArgs, ParsesFlagsAndValues) {
  char a0[] = "tool";
  char a1[] = "--folded";
  char a2[] = "out.folded";
  char a3[] = "--verbose";
  std::vector<char*> remaining{a0, a1, a2, a3};

  std::string folded;
  bool verbose = false;
  tools::CliArgs cli("usage: tool [--folded <path>] [--verbose]");
  cli.add_value("--folded", &folded).add_flag("--verbose", &verbose);
  EXPECT_TRUE(cli.parse(remaining));
  EXPECT_EQ(folded, "out.folded");
  EXPECT_TRUE(verbose);
}

TEST(CliArgs, RejectsUnknownArgument) {
  char a0[] = "tool";
  char a1[] = "--nope";
  std::vector<char*> remaining{a0, a1};
  tools::CliArgs cli("usage: tool");
  EXPECT_FALSE(cli.parse(remaining));
}

TEST(CliArgs, RejectsValueFlagWithoutValue) {
  char a0[] = "tool";
  char a1[] = "--folded";
  std::vector<char*> remaining{a0, a1};
  std::string folded;
  tools::CliArgs cli("usage: tool [--folded <path>]");
  cli.add_value("--folded", &folded);
  EXPECT_FALSE(cli.parse(remaining));
  EXPECT_TRUE(folded.empty());
}

}  // namespace
}  // namespace hpcos
