// Observability subsystem: registry snapshots, trace-buffer wraparound,
// Chrome trace_event export, BenchReport schema, and the span-instrumented
// offload path end to end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "cluster/bsp.h"
#include "cluster/fwq_campaign.h"
#include "cluster/job_launcher.h"
#include "cluster/node.h"
#include "cluster/osenv.h"
#include "noise/profiles.h"
#include "obs/bench_report.h"
#include "obs/live/heartbeat.h"
#include "obs/live/live.h"
#include "obs/prof/counters.h"
#include "obs/prof/mem.h"
#include "obs/prof_report.h"
#include "obs/registry.h"
#include "sim/chrome_trace.h"
#include "sim/trace.h"
#include "test_support.h"

namespace hpcos {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, CounterAndHistogramRegistration) {
  obs::Registry reg;
  obs::Counter* c = reg.counter("a.b");
  EXPECT_EQ(reg.counter("a.b"), c);  // find-or-create is stable
  c->add();
  c->add(3);
  EXPECT_EQ(c->value(), 4u);
  EXPECT_EQ(reg.find_counter("a.b")->value(), 4u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);

  LogHistogram* h = reg.histogram("lat.us", 0.1, 1000.0, 32);
  EXPECT_EQ(reg.histogram("lat.us", 0.5, 2.0, 4), h);  // first layout wins
  h->add(10.0);
  EXPECT_EQ(reg.counter_count(), 1u);
  EXPECT_EQ(reg.histogram_count(), 1u);
}

TEST(ObsRegistry, BumpAndObserveAreNullSafe) {
  obs::bump(nullptr);
  obs::observe(nullptr, 1.0);  // must not crash: the "disabled" hot path
  obs::Registry reg;
  obs::Counter* c = reg.counter("x");
  obs::bump(c, 2);
  EXPECT_EQ(c->value(), 2u);
}

TEST(ObsRegistry, SnapshotDeltaIsolatesWindow) {
  obs::Registry reg;
  obs::Counter* c = reg.counter("events");
  LogHistogram* h = reg.histogram("lat", 1.0, 100.0, 8);
  c->add(5);
  h->add(2.0);
  const auto before = reg.snapshot();
  c->add(7);
  h->add(4.0);
  h->add(8.0);
  const auto after = reg.snapshot();
  const auto delta = obs::Snapshot::delta(after, before);
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].name, "events");
  EXPECT_EQ(delta.counters[0].value, 7u);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 2u);
}

// ------------------------------------------------------ trace wraparound

sim::TraceRecord rec_at(std::int64_t us, sim::TraceCategory cat,
                        const std::string& label) {
  return sim::TraceRecord{.time = SimTime::us(us),
                          .core = 0,
                          .category = cat,
                          .duration = SimTime::us(1),
                          .label = label};
}

TEST(TraceBufferWrap, DroppedCountsEvictedRecords) {
  sim::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    buf.record(rec_at(i, sim::TraceCategory::kUser, "r"));
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total_recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
}

TEST(TraceBufferWrap, SnapshotStaysChronologicalAcrossWrap) {
  sim::TraceBuffer buf(4);
  for (int i = 0; i < 7; ++i) {
    buf.record(rec_at(10 * i, sim::TraceCategory::kUser,
                      std::to_string(i)));
  }
  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest retained first: records 3..6.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].label, std::to_string(i + 3));
    if (i > 0) {
      EXPECT_GE(snap[i].time, snap[i - 1].time);
    }
  }
}

// ------------------------------------------------------ chrome trace JSON

std::vector<sim::TraceRecord> span_tree_records() {
  std::vector<sim::TraceRecord> recs;
  sim::TraceRecord root = rec_at(100, sim::TraceCategory::kSyscallOffload,
                                 "offload:stat");
  root.duration = SimTime::us(10);
  root.span = 1;
  recs.push_back(root);
  sim::TraceRecord child = rec_at(102, sim::TraceCategory::kSyscall,
                                  "proxy:execute");
  child.duration = SimTime::us(5);
  child.span = 2;
  child.parent = 1;
  recs.push_back(child);
  sim::TraceRecord marker = rec_at(101, sim::TraceCategory::kIrq, "doorbell");
  marker.duration = SimTime::zero();
  recs.push_back(marker);
  return recs;
}

TEST(ChromeTrace, DocumentHasRequiredKeysAndMonotonicTs) {
  const auto doc = sim::chrome_trace_document(
      {{span_tree_records(),
        sim::ChromeTraceOptions{.pid = 7, .process_name = "node0"}}});
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
  const auto& events = doc.at("traceEvents").as_array();
  // 3 records + 1 process_name metadata event.
  ASSERT_EQ(events.size(), 4u);
  double last_ts = -1.0;
  for (const auto& e : events) {
    ASSERT_TRUE(e.contains("name"));
    ASSERT_TRUE(e.contains("ph"));
    ASSERT_TRUE(e.contains("pid"));
    if (e.at("ph").as_string() == "M") continue;
    ASSERT_TRUE(e.contains("ts"));
    ASSERT_TRUE(e.contains("tid"));
    ASSERT_TRUE(e.contains("cat"));
    EXPECT_GE(e.at("ts").as_number(), last_ts);
    last_ts = e.at("ts").as_number();
  }
}

TEST(ChromeTrace, RoundTripsThroughSerialization) {
  const auto doc = sim::chrome_trace_document({{span_tree_records(), {}}});
  const auto parsed = JsonValue::parse(doc.dump_pretty());
  EXPECT_EQ(sim::validate_chrome_trace(parsed), "");
  // The span/parent linkage must survive the round trip.
  bool found_child = false;
  for (const auto& e : parsed.at("traceEvents").as_array()) {
    const JsonValue* args = e.find("args");
    if (args != nullptr && args->contains("parent")) {
      EXPECT_EQ(args->at("parent").as_number(), 1.0);
      EXPECT_EQ(args->at("span").as_number(), 2.0);
      found_child = true;
    }
  }
  EXPECT_TRUE(found_child);
}

TEST(ChromeTrace, ValidatorRejectsMalformedDocuments) {
  EXPECT_NE(sim::validate_chrome_trace(JsonValue::parse("{}")), "");
  EXPECT_NE(sim::validate_chrome_trace(
                JsonValue::parse(R"({"traceEvents": 3})")),
            "");
  // Non-monotonic ts.
  const auto bad = JsonValue::parse(R"({"traceEvents": [
    {"name":"a","ph":"X","pid":0,"tid":0,"cat":"user","ts":5.0,"dur":1.0},
    {"name":"b","ph":"X","pid":0,"tid":0,"cat":"user","ts":2.0,"dur":1.0}
  ]})");
  EXPECT_NE(sim::validate_chrome_trace(bad), "");
}

TEST(ChromeTrace, EmptyRecordSetExportsValidEmptyDocument) {
  const auto doc = sim::chrome_trace_document(
      {{{}, sim::ChromeTraceOptions{.pid = 3, .process_name = "node3"}}});
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
  // No events -> no metadata either: a named process with zero events
  // would render as an empty track in the viewer.
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST(ChromeTrace, EmptyGroupsContributeNoMetadata) {
  std::vector<sim::ChromeTraceGroup> groups(3);
  groups[0].records = span_tree_records();
  groups[0].options.pid = 1;
  groups[0].options.process_name = "node1";
  groups[1].options.pid = 2;  // zero-span group: must vanish entirely
  groups[1].options.process_name = "node2";
  groups[1].options.thread_names = {{0, "rank 0 @ node 2"}};
  // groups[2] stays default-empty.
  const auto doc = chrome_trace_document(groups);
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 4u);  // 3 records + node1's process_name only
  std::size_t metadata = 0;
  for (const auto& e : events) {
    EXPECT_EQ(e.at("pid").as_number(), 1.0);
    if (e.at("ph").as_string() == "M") ++metadata;
  }
  EXPECT_EQ(metadata, 1u);
}

TEST(ChromeTrace, AllEmptyGroupsYieldValidEmptyDocument) {
  std::vector<sim::ChromeTraceGroup> groups(2);
  groups[0].options.process_name = "ghost";
  const auto doc = chrome_trace_document(groups);
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

// --------------------------------------------------------- bench report

TEST(BenchReport, RoundTripValidates) {
  obs::BenchReport report("test_bench", /*quick=*/true, /*seed=*/99);
  report.add_metric("alpha.p50_ms", "ms", 1.5);
  report.add_metric(obs::BenchMetric{.name = "beta.rate",
                                     .unit = "ratio",
                                     .value = 0.25,
                                     .percentiles = {{"p50", 0.2},
                                                     {"p99", 0.9}}});
  const std::string path = "test_obs_bench_report.json";
  report.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = JsonValue::parse(text.str());
  EXPECT_EQ(obs::validate_bench_report(doc), "");
  EXPECT_EQ(doc.at("bench").as_string(), "test_bench");
  EXPECT_TRUE(doc.at("quick").as_bool());
  EXPECT_EQ(doc.at("seed").as_number(), 99.0);
  EXPECT_EQ(doc.at("metrics").as_array().size(), 2u);
  std::remove(path.c_str());
}

TEST(BenchReport, ValidatorRejectsNaNAndSchemaViolations) {
  obs::BenchReport nan_report("nan_bench", false);
  nan_report.add_metric("bad", "us", std::nan(""));
  // Direct document: the value is a non-finite number.
  EXPECT_NE(obs::validate_bench_report(nan_report.to_json()), "");
  // Serialization refuses non-finite numbers outright with a clear error
  // (json_format_number) — they can no longer silently become null.
  EXPECT_THROW((void)nan_report.to_json().dump(), std::runtime_error);

  obs::BenchReport empty("empty_bench", false);
  EXPECT_NE(obs::validate_bench_report(empty.to_json()), "");
  EXPECT_NE(obs::validate_bench_report(JsonValue::parse("{}")), "");
}

TEST(BenchReport, ValidatorRejectsNameRepeatedAfterFlattening) {
  obs::BenchReport twice("dup_bench", false);
  twice.add_metric("a", "count", 1.0);
  twice.add_metric("a", "count", 2.0);
  const std::string err = obs::validate_bench_report(twice.to_json());
  EXPECT_NE(err.find("\"a\" repeats"), std::string::npos) << err;

  // A percentile flattens to "<name>.<pN>", so it can collide with a
  // plain metric of that name.
  obs::BenchReport collide("dup_bench", false);
  collide.add_metric(obs::BenchMetric{
      .name = "lat", .unit = "us", .value = 1.0, .percentiles = {{"p50", 1.0}}});
  collide.add_metric("lat.p50", "us", 1.0);
  EXPECT_NE(obs::validate_bench_report(collide.to_json()).find("lat.p50"),
            std::string::npos);

  obs::BenchReport distinct("dup_bench", false);
  distinct.add_metric(obs::BenchMetric{
      .name = "lat", .unit = "us", .value = 1.0, .percentiles = {{"p50", 1.0}}});
  distinct.add_metric("lat.p99", "us", 2.0);
  EXPECT_EQ(obs::validate_bench_report(distinct.to_json()), "");
}

TEST(BenchReport, ProfileSectionIsFoldedOnce) {
  // A target that folds its own profile section (hotspot) and then drains
  // the shared --profile sink must not get a second copy of any
  // host.prof.* / host.mem.* name.
  obs::prof::AllocCounter("test.obs.fold_once").add(64);
  obs::BenchReport report("profile_once_bench", true);
  report.add_metric("x", "count", 1.0);
  obs::add_profile_metrics(report, obs::prof::Profile{});
  ASSERT_TRUE(report.has_metric("host.prof.events"));
  ASSERT_TRUE(report.has_metric("host.mem.test.obs.fold_once.bytes"));
  const std::size_t folded = report.metric_count();

  obs::BenchOptions opts;
  opts.sinks.profile = true;
  obs::maybe_write_report(report, opts);
  EXPECT_EQ(report.metric_count(), folded);
  EXPECT_EQ(obs::validate_bench_report(report.to_json()), "");
}

TEST(BenchReport, ParseBenchOptionsExtractsFlags) {
  const char* argv_in[] = {"bench", "--quick", "--json", "out.json",
                           "--benchmark_filter=x"};
  auto** argv = const_cast<char**>(argv_in);
  const auto opts = obs::parse_bench_options(5, argv);
  EXPECT_TRUE(opts.quick);
  EXPECT_EQ(opts.sinks.json_path, "out.json");
  EXPECT_FALSE(opts.sinks.progress);
  EXPECT_EQ(opts.sinks.watchdog_stall_s, 0.0);
  ASSERT_EQ(opts.remaining.size(), 2u);
  EXPECT_STREQ(opts.remaining[0], "bench");
  EXPECT_STREQ(opts.remaining[1], "--benchmark_filter=x");
}

TEST(BenchReport, ParseBenchOptionsArmsProgressAndWatchdogSinks) {
  // --progress=<ms> plus an explicit stream path: the meter starts at
  // parse time; draining it through maybe_write_report folds the
  // host.progress.* aggregates into the report and emits a valid
  // heartbeat stream (at least the "final" record, even for a run
  // shorter than one interval).
  TempFile stream("test_obs_progress.heartbeat.jsonl");
  const char* argv_in[] = {"bench_progress_test", "--progress=250",
                           "--progress-file", stream.path.c_str(),
                           "--watchdog=45.5"};
  auto** argv = const_cast<char**>(argv_in);
  auto opts = obs::parse_bench_options(5, argv);
  EXPECT_TRUE(opts.sinks.progress);
  EXPECT_EQ(opts.sinks.progress_interval_ms, 250);
  EXPECT_EQ(opts.sinks.heartbeat_path, stream.path);
  EXPECT_EQ(opts.sinks.watchdog_stall_s, 45.5);
  EXPECT_FALSE(opts.sinks.watchdog_abort);
  ASSERT_EQ(opts.remaining.size(), 1u);
  obs::prof::host_counter(obs::prof::kLiveEvents)->add(1234);

  obs::BenchReport report("progress_bench", true);
  report.add_metric("x", "count", 1.0);
  opts.sinks.progress = false;  // stderr quiet; meter still stops/drains
  obs::maybe_write_report(report, opts);
  EXPECT_FALSE(obs::live::stop_global_meter().active);  // already drained

  auto find = [&](const std::string& name) -> const obs::BenchMetric* {
    for (const auto& m : report.metrics()) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const obs::BenchMetric* events = find("host.progress.events.total");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 1234.0);
  EXPECT_NE(find("host.progress.events_per_sec.mean"), nullptr);
  EXPECT_NE(find("host.progress.events_per_sec.max"), nullptr);
  const obs::BenchMetric* stalls = find("host.watchdog.stalls.count");
  ASSERT_NE(stalls, nullptr);
  EXPECT_EQ(stalls->value, 0.0);

  const obs::live::HeartbeatLog log =
      obs::live::read_heartbeat_log(stream.path, /*strict=*/true);
  ASSERT_GE(log.records.size(), 1u);
  const JsonValue& last = log.records.back();
  EXPECT_EQ(last.at("kind").as_string(), "final");
  EXPECT_EQ(last.at("target").as_string(), "bench_progress_test");
  EXPECT_EQ(last.at("events").as_number(), 1234.0);
}

// -------------------------------------- span-instrumented offload path

TEST(OffloadSpans, OneOffloadedSyscallExportsAsParentLinkedTree) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto lcfg = linuxk::make_fugaku_linux_config(platform);
  lcfg.profile = noise::AnalyticNoiseProfile{};
  auto mcfg = mck::McKernelConfig::defaults();
  mcfg.hw_noise = noise::AnalyticNoiseProfile{};
  cluster::SimNodeOptions options;
  options.seed = Seed{5};
  options.observability = true;
  options.trace_capacity = 1024;
  auto node = cluster::SimNode::make_multikernel_node(
      platform, std::move(lcfg), std::move(mcfg), options);

  struct OneStat final : os::ThreadBody {
    bool done = false;
    void step(os::ThreadContext& ctx) override {
      if (done) {
        ctx.exit();
        return;
      }
      done = true;
      ctx.invoke(os::Syscall::kStat, {});
    }
  };
  node->lwk()->spawn(std::make_unique<OneStat>(),
                     os::SpawnAttrs{.name = "one-stat"});
  node->simulator().run_until(SimTime::ms(100));

  // Counters saw exactly one delegation.
  EXPECT_EQ(node->registry().find_counter("offload.requests")->value(), 1u);
  EXPECT_EQ(node->registry().find_counter("offload.replies")->value(), 1u);
  EXPECT_EQ(
      node->registry().find_counter("lwk.syscalls.offloaded")->value(), 1u);

  // The trace holds one root span with >= 2 children (>= 3 spans total),
  // every child linked to the root.
  std::vector<sim::TraceRecord> spanned;
  for (const auto& r : node->trace().snapshot()) {
    if (r.span != 0) spanned.push_back(r);
  }
  std::uint64_t root_span = 0;
  std::size_t children = 0;
  for (const auto& r : spanned) {
    if (r.parent == 0) {
      EXPECT_EQ(root_span, 0u) << "exactly one root span expected";
      EXPECT_EQ(r.category, sim::TraceCategory::kSyscallOffload);
      EXPECT_EQ(r.label, "offload:stat");
      root_span = r.span;
    }
  }
  ASSERT_NE(root_span, 0u);
  for (const auto& r : spanned) {
    if (r.parent != 0) {
      EXPECT_EQ(r.parent, root_span);
      ++children;
    }
  }
  EXPECT_GE(children, 2u);
  EXPECT_GE(spanned.size(), 3u);

  // The whole tree exports as a valid Chrome trace document whose child
  // events reference the root span id in args.
  const auto doc = sim::chrome_trace_document({{spanned, {}}});
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
  std::size_t linked = 0;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    const JsonValue* args = e.find("args");
    if (args != nullptr && args->contains("parent") &&
        args->at("parent").as_number() ==
            static_cast<double>(root_span)) {
      ++linked;
    }
  }
  EXPECT_EQ(linked, children);

  // The latency-split histograms cover the same delegation.
  const auto snap = node->registry().snapshot();
  bool saw_rtt = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "offload.rtt_us") {
      saw_rtt = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_GT(h.max, 0.0);
    }
  }
  EXPECT_TRUE(saw_rtt);
}

TEST(OffloadSpans, DisabledObservabilityRegistersNothing) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults(), cluster::SimNodeOptions{.seed = Seed{5}});
  node->simulator().run_until(SimTime::ms(5));
  EXPECT_EQ(node->registry().counter_count(), 0u);
  EXPECT_EQ(node->registry().histogram_count(), 0u);
}

// ----------------------------------------- page-fault / BSP phase spans

// Every non-zero parent id must reference a span id present in the set —
// the tree reconstructs without dangling edges.
void expect_parent_links_resolve(const std::vector<sim::TraceRecord>& recs) {
  std::set<std::uint64_t> ids;
  for (const auto& r : recs) {
    if (r.span != 0) ids.insert(r.span);
  }
  for (const auto& r : recs) {
    if (r.parent != 0) {
      EXPECT_TRUE(ids.count(r.parent)) << "dangling parent on " << r.label;
    }
  }
}

// Prepopulated large-page mmap followed by munmap: bulk fault-in spans on
// the way in, a TLB-shootdown subtree under the unmap root on the way out.
struct MmapUnmap final : os::ThreadBody {
  int stage = 0;
  std::uint64_t addr = 0;
  void step(os::ThreadContext& ctx) override {
    switch (stage++) {
      case 0:
        ctx.invoke(os::Syscall::kMmap,
                   os::SyscallArgs{.arg0 = 32ull << 20, .arg1 = 1});
        return;
      case 1:
        addr = static_cast<std::uint64_t>(ctx.last_syscall().value);
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = addr, .arg1 = 32ull << 20});
        return;
      default:
        ctx.exit();
    }
  }
};

template <typename MakeNode>
std::vector<sim::TraceRecord> fault_span_campaign(MakeNode make_node) {
  const auto platform = hw::make_fugaku_testbed_platform();
  cluster::SimNodeOptions options;
  options.seed = Seed{11};
  options.observability = true;
  options.trace_capacity = 4096;
  auto node = make_node(platform, options);
  cluster::JobLauncher launcher(*node);
  const auto job = launcher.launch(cluster::LaunchSpec{.ranks = 1});
  launcher.spawn_rank_thread(job, 0, std::make_unique<MmapUnmap>(),
                             "mmap-unmap");
  node->simulator().run_until(SimTime::ms(50));
  return node->trace().snapshot();
}

TEST(FaultSpans, LinuxFaultAndShootdownTreesAreParentLinked) {
  const auto recs = fault_span_campaign([](const auto& platform,
                                           const auto& options) {
    return cluster::SimNode::make_linux_node(
        platform, linuxk::make_fugaku_linux_config(platform), options);
  });
  expect_parent_links_resolve(recs);

  // A bulk fault root with its populate child.
  std::uint64_t fault_root = 0;
  for (const auto& r : recs) {
    if (r.parent == 0 && r.span != 0 && r.label.rfind("fault:", 0) == 0) {
      EXPECT_EQ(r.category, sim::TraceCategory::kPageFault);
      EXPECT_GT(r.duration, SimTime::zero());
      fault_root = r.span;
      break;
    }
  }
  ASSERT_NE(fault_root, 0u);
  bool populate_child = false;
  for (const auto& r : recs) {
    if (r.parent == fault_root && r.label == "fault:populate") {
      populate_child = true;
    }
  }
  EXPECT_TRUE(populate_child);

  // The unmap root owns both the page teardown and the TLB shootdown, and
  // the shootdown has its own child breakdown.
  std::uint64_t unmap_root = 0;
  for (const auto& r : recs) {
    if (r.parent == 0 && r.label == "unmap:munmap") unmap_root = r.span;
  }
  ASSERT_NE(unmap_root, 0u);
  std::uint64_t shootdown = 0;
  bool pages_child = false;
  for (const auto& r : recs) {
    if (r.parent != unmap_root) continue;
    if (r.label == "tlb:shootdown") {
      EXPECT_EQ(r.category, sim::TraceCategory::kTlbShootdown);
      shootdown = r.span;
    }
    if (r.label == "unmap:pages") pages_child = true;
  }
  ASSERT_NE(shootdown, 0u);
  EXPECT_TRUE(pages_child);
  std::size_t shootdown_children = 0;
  for (const auto& r : recs) {
    if (r.parent == shootdown) ++shootdown_children;
  }
  EXPECT_GE(shootdown_children, 1u);

  const auto doc = sim::chrome_trace_document({{recs, {}}});
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
}

TEST(FaultSpans, McKernelFaultTreesAreParentLinked) {
  const auto recs = fault_span_campaign([](const auto& platform,
                                           const auto& options) {
    return cluster::SimNode::make_multikernel_node(
        platform, linuxk::make_fugaku_linux_config(platform),
        mck::McKernelConfig::defaults(), options);
  });
  expect_parent_links_resolve(recs);
  std::uint64_t fault_root = 0;
  for (const auto& r : recs) {
    if (r.parent == 0 && r.span != 0 && r.label.rfind("fault:", 0) == 0 &&
        r.duration > SimTime::zero()) {
      EXPECT_EQ(r.category, sim::TraceCategory::kPageFault);
      fault_root = r.span;
      break;
    }
  }
  ASSERT_NE(fault_root, 0u);
  bool populate_child = false;
  for (const auto& r : recs) {
    if (r.parent == fault_root && r.label == "fault:populate") {
      populate_child = true;
    }
  }
  EXPECT_TRUE(populate_child);
  const auto doc = sim::chrome_trace_document({{recs, {}}});
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
}

TEST(BspSpans, PhaseTreesSumExactlyAndExportWithRankTracks) {
  class TinySolver final : public cluster::Workload {
   public:
    std::string name() const override { return "tiny-solver"; }
    int iterations() const override { return 3; }
    cluster::RankWork rank_work(
        int, const cluster::JobConfig&,
        const cluster::OsEnvironment&) const override {
      cluster::RankWork w;
      w.compute = SimTime::ms(2);
      w.touch_bytes = 4ull << 20;
      w.alloc_churn_bytes = 8ull << 20;
      w.allreduces = 1;
      w.allreduce_bytes = 4096;
      w.halo_neighbors = 6;
      w.halo_bytes = 64ull << 10;
      w.barriers = 1;
      w.thread_barriers = 2;
      w.imbalance_sigma = 0.05;
      return w;
    }
    cluster::InitWork init_work(
        const cluster::JobConfig&,
        const cluster::OsEnvironment&) const override {
      cluster::InitWork init;
      init.serial_setup = SimTime::ms(5);
      init.touch_bytes = 16ull << 20;
      init.rdma_registrations = 2;
      init.rdma_bytes_each = 8ull << 20;
      return init;
    }
  };

  const auto env = cluster::make_fugaku_linux_env();
  const cluster::JobConfig job{.nodes = 16, .ranks_per_node = 4,
                               .threads_per_rank = 12};
  TinySolver w;
  sim::TraceBuffer buf(1 << 14);
  cluster::BspEngine traced_engine(env, job, Seed{3});
  traced_engine.set_trace(&buf, /*track=*/5);
  const auto traced = traced_engine.run(w);

  // Tracing must not perturb the simulated result (same RNG draw order).
  cluster::BspEngine plain_engine(env, job, Seed{3});
  const auto plain = plain_engine.run(w);
  EXPECT_EQ(traced.total, plain.total);
  EXPECT_EQ(traced.init_time, plain.init_time);

  const auto recs = buf.snapshot();
  expect_parent_links_resolve(recs);
  for (const auto& r : recs) EXPECT_EQ(r.core, 5);

  // One init root plus one root per iteration; each root's direct
  // children sum exactly to the root duration (the phases are the full
  // time composition, laid back to back on the virtual timeline).
  std::size_t roots = 0;
  for (const auto& r : recs) {
    if (r.parent != 0) continue;
    ++roots;
    EXPECT_EQ(r.category, sim::TraceCategory::kCollective);
    EXPECT_TRUE(r.label == "bsp:init" || r.label == "bsp:iteration");
    SimTime child_sum;
    for (const auto& c : recs) {
      if (c.parent == r.span) child_sum += c.duration;
    }
    EXPECT_EQ(child_sum, r.duration) << r.label;
    if (r.label == "bsp:iteration") {
      // The allreduce child splits into reduce-scatter + allgather
      // grandchildren that sum exactly to it.
      for (const auto& c : recs) {
        if (c.parent != r.span || c.label != "bsp:allreduce") continue;
        SimTime split_sum;
        std::size_t parts = 0;
        for (const auto& g : recs) {
          if (g.parent == c.span) {
            ++parts;
            split_sum += g.duration;
          }
        }
        EXPECT_EQ(parts, 2u);
        EXPECT_EQ(split_sum, c.duration);
      }
    }
  }
  EXPECT_EQ(roots, 1u + static_cast<std::size_t>(w.iterations()));

  // The rank track exports with its thread_name metadata and validates.
  const auto doc = sim::chrome_trace_document(
      {{recs, sim::ChromeTraceOptions{
                  .pid = 3,
                  .process_name = "bsp-cluster",
                  .thread_names = {{5, "rank 0 @ node 0"}}}}});
  EXPECT_EQ(sim::validate_chrome_trace(doc), "");
  bool saw_thread_name = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name") {
      EXPECT_EQ(e.at("args").at("name").as_string(), "rank 0 @ node 0");
      EXPECT_EQ(e.at("tid").as_number(), 5.0);
      saw_thread_name = true;
    }
  }
  EXPECT_TRUE(saw_thread_name);
}

TEST(TraceBufferWrap, MixedSpanTreesSurviveWraparound) {
  // Four 3-record span trees (root + 2 children) of different categories
  // into an 8-slot ring: the oldest tree and the second tree's root are
  // evicted. The snapshot must stay chronological, the surviving trees
  // fully linked, and orphaned children must keep their parent ids (the
  // exporter ships them as plain events; analysis sees the truncation via
  // dropped()).
  sim::TraceBuffer buf(8);
  const sim::TraceCategory cats[] = {sim::TraceCategory::kPageFault,
                                     sim::TraceCategory::kCollective,
                                     sim::TraceCategory::kSyscallOffload,
                                     sim::TraceCategory::kTlbShootdown};
  std::vector<std::uint64_t> tree_roots;
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t root = buf.new_span();
    tree_roots.push_back(root);
    sim::TraceRecord rec = rec_at(100 * k, cats[k], "root" + std::to_string(k));
    rec.span = root;
    buf.record(rec);
    for (int c = 0; c < 2; ++c) {
      sim::TraceRecord child =
          rec_at(100 * k + c + 1, cats[k],
                 "child" + std::to_string(k) + std::to_string(c));
      child.span = buf.new_span();
      child.parent = root;
      buf.record(child);
    }
  }
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.dropped(), 4u);

  const auto snap = buf.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i].time, snap[i - 1].time);
  }
  // Trees 2 and 3 survive intact: root present, both children linked.
  for (int k = 2; k < 4; ++k) {
    std::size_t kids = 0;
    bool root_present = false;
    for (const auto& r : snap) {
      if (r.span == tree_roots[static_cast<std::size_t>(k)]) {
        root_present = true;
      }
      if (r.parent == tree_roots[static_cast<std::size_t>(k)]) ++kids;
    }
    EXPECT_TRUE(root_present);
    EXPECT_EQ(kids, 2u);
  }
  // Tree 1's root was evicted but its children survive as orphans with
  // their original parent id intact.
  std::size_t orphans = 0;
  for (const auto& r : snap) {
    EXPECT_NE(r.span, tree_roots[1]);
    if (r.parent == tree_roots[1]) ++orphans;
  }
  EXPECT_EQ(orphans, 2u);
  // The truncated mix still exports as a valid document.
  EXPECT_EQ(
      sim::validate_chrome_trace(sim::chrome_trace_document({{snap, {}}})),
      "");
}

// ------------------------------------------------- campaign top-K heaps

// Three shards of 128 nodes, so each shard's heap of K = 100 evicts.
cluster::FwqCampaignConfig small_campaign() {
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = 384;
  cfg.app_cores = 4;
  cfg.duration_per_core = SimTime::sec(60);
  cfg.nodes_per_shard = 128;
  cfg.max_materialized_hits = 256;
  cfg.seed = Seed{77};
  return cfg;
}

TEST(FwqTopK, BoundedHeapsMatchUnboundedSelection) {
  const auto profile = noise::ofp_linux_profile();
  const auto b = run_fwq_campaign(profile, small_campaign());

  // One node per shard: no shard outgrows K, so every node's maximum
  // reaches the merge.
  auto unbounded = small_campaign();
  unbounded.nodes_per_shard = 1;
  obs::Registry reg;
  unbounded.registry = &reg;
  const auto u = run_fwq_campaign(profile, unbounded);
  EXPECT_EQ(reg.find_counter("fwq.topk.evictions")->value(), 0u);

  ASSERT_EQ(b.worst_node_max_us.size(), 100u);
  EXPECT_EQ(b.worst_node_max_us, u.worst_node_max_us);
  EXPECT_TRUE(std::is_sorted(b.worst_node_max_us.rbegin(),
                             b.worst_node_max_us.rend()));
}

TEST(FwqTopK, WorstListInvariantAcrossShardGeometry) {
  const auto profile = noise::ofp_linux_profile();
  auto wide = small_campaign();
  wide.nodes_per_shard = 384;  // single shard
  auto narrow = small_campaign();
  narrow.nodes_per_shard = 8;  // 48 shards
  const auto a = run_fwq_campaign(profile, wide);
  const auto b = run_fwq_campaign(profile, narrow);
  EXPECT_EQ(a.worst_node_max_us, b.worst_node_max_us);
}

TEST(FwqTopK, RegistryFoldsPushAndEvictionCounts) {
  const auto profile = noise::ofp_linux_profile();
  obs::Registry reg;
  auto cfg = small_campaign();
  cfg.registry = &reg;
  const auto r = run_fwq_campaign(profile, cfg);
  EXPECT_EQ(reg.find_counter("fwq.campaign.nodes")->value(), 384u);
  EXPECT_EQ(reg.find_counter("fwq.campaign.iterations")->value(),
            r.total_iterations);
  // Every node pushes once; with K = 100 per 128-node shard, each of the
  // three shards evicts 28.
  EXPECT_EQ(reg.find_counter("fwq.topk.pushes")->value(), 384u);
  EXPECT_EQ(reg.find_counter("fwq.topk.evictions")->value(), 3u * 28u);
}

}  // namespace
}  // namespace hpcos
