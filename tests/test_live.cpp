// obs/live: heartbeat schema, ProgressMeter + stall watchdog, sampled
// span tracer.
//
// The watchdog test injects a real stall (counters frozen while the
// meter runs) and asserts on the diagnostic snapshot's content; the
// sampler tests pin the exactness contract (rate=1 keeps everything) and
// the bounded-memory contract (a 10x-longer synthetic run keeps the same
// reservoir-capped raw side while the sketch side stays exact).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/sim_time.h"
#include "obs/live/heartbeat.h"
#include "obs/live/live.h"
#include "obs/live/span_sampler.h"
#include "obs/prof/counters.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "test_support.h"

namespace hpcos::obs::live {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// The live feed's writers, as the DES loop / campaign drivers bump it.
void feed(const char* name, std::uint64_t n) {
  prof::host_counter(name)->add(n);
}
void feed_sim_time_and_depth(std::uint64_t sim_ns, std::uint64_t depth) {
  prof::host_counter(prof::kLiveSimTimeNs)->note_max(sim_ns);
  prof::host_counter(prof::kLiveDesDepth)->set(depth);
  prof::host_counter(prof::kLiveDesMaxDepth)->note_max(depth);
}

Heartbeat sample_heartbeat() {
  Heartbeat hb;
  hb.target = "bench_test";
  hb.kind = "tick";
  hb.seq = 3;
  hb.t_ms = 3001.25;
  hb.events = 123456;
  hb.events_per_sec = 41152.5;
  hb.sim_time_us = 3.6e9;
  hb.units_done = 42;
  hb.units_total = 160;
  hb.eta_s = 34.2;
  hb.des_depth = 12;
  hb.des_max_depth = 96;
  hb.sched_chunks = 880;
  hb.sched_steals = 41;
  hb.sched_parks = 7;
  hb.sched_max_depth = 3;
  hb.rss_bytes = 221249536;
  hb.peak_rss_bytes = 234881024;
  hb.stalls = 1;
  return hb;
}

// ---- heartbeat schema ---------------------------------------------------

TEST(Heartbeat, JsonRoundTripValidatesAndPreservesFields) {
  const Heartbeat hb = sample_heartbeat();
  const JsonValue record = heartbeat_to_json(hb);
  EXPECT_EQ(validate_heartbeat_record(record), "");
  EXPECT_EQ(record.at("schema").as_string(), kHeartbeatSchema);
  EXPECT_EQ(record.at("target").as_string(), "bench_test");
  EXPECT_EQ(record.at("kind").as_string(), "tick");
  EXPECT_EQ(record.at("seq").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(record.at("t_ms").as_number(), 3001.25);
  EXPECT_EQ(record.at("events").as_number(), 123456.0);
  EXPECT_EQ(record.at("des").at("depth").as_number(), 12.0);
  EXPECT_EQ(record.at("des").at("max_depth").as_number(), 96.0);
  EXPECT_EQ(record.at("sched").at("steals").as_number(), 41.0);
  EXPECT_EQ(record.at("stalls").as_number(), 1.0);

  // The stream line parses back to the same record.
  const std::string line = heartbeat_line(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const JsonValue reparsed = JsonValue::parse(line);
  EXPECT_EQ(validate_heartbeat_record(reparsed), "");
  EXPECT_EQ(reparsed.at("events").as_number(), 123456.0);
}

TEST(Heartbeat, ValidationRejectsSchemaKindAndFieldViolations) {
  const JsonValue good = heartbeat_to_json(sample_heartbeat());

  JsonValue bad_schema = good;
  bad_schema.set("schema", JsonValue("hpcos-run/1"));
  EXPECT_NE(validate_heartbeat_record(bad_schema), "");

  JsonValue bad_kind = good;
  bad_kind.set("kind", JsonValue("pulse"));
  EXPECT_NE(validate_heartbeat_record(bad_kind), "");

  JsonValue negative_rate = good;
  negative_rate.set("events_per_sec", JsonValue(-1.0));
  EXPECT_NE(validate_heartbeat_record(negative_rate), "");

  JsonValue missing_des = good;
  missing_des.set("des", JsonValue("not an object"));
  EXPECT_NE(validate_heartbeat_record(missing_des), "");

  EXPECT_THROW(heartbeat_line(bad_kind), std::runtime_error);
}

TEST(Heartbeat, AsciiLineNamesTargetProgressAndStalls) {
  const std::string line = heartbeat_ascii(sample_heartbeat());
  EXPECT_NE(line.find("bench_test"), std::string::npos);
  EXPECT_NE(line.find("42/160"), std::string::npos);
  EXPECT_NE(line.find("stalls=1"), std::string::npos);
}

TEST(Heartbeat, StrictParseNamesLineLenientSkipsAndCounts) {
  const std::string good = heartbeat_line(heartbeat_to_json(sample_heartbeat()));
  const std::string text = good + "\n{\"torn\": tru\n" + good + "\n";
  try {
    parse_json_lines(text, validate_heartbeat_record, /*strict=*/true,
                         "heartbeat");
    FAIL() << "strict parse accepted a torn line";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("heartbeat line 2"),
              std::string::npos)
        << e.what();
  }
  const HeartbeatLog log = parse_json_lines(
      text, validate_heartbeat_record, /*strict=*/false, "heartbeat");
  EXPECT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.skipped, 1u);
}

TEST(Heartbeat, SectionWithoutEveryDocumentedKeyIsSkippedNotFatal) {
  // A section missing a documented key must not validate: `live` indexes
  // every key, so one such line would abort its whole lenient read.
  const JsonValue good_record = heartbeat_to_json(sample_heartbeat());
  const std::string good = heartbeat_line(good_record);
  JsonValue partial_des = good_record;
  JsonValue des = JsonValue::object();
  des.set("max_depth", std::uint64_t{5});
  partial_des.set("des", std::move(des));
  EXPECT_NE(validate_heartbeat_record(partial_des), "");
  JsonValue partial_sched = good_record;
  JsonValue sched = JsonValue::object();
  sched.set("chunks", std::uint64_t{1});
  sched.set("steals", std::uint64_t{0});
  sched.set("max_depth", std::uint64_t{1});
  partial_sched.set("sched", std::move(sched));  // no "parks"
  EXPECT_NE(validate_heartbeat_record(partial_sched), "");

  const std::string text =
      good + "\n" + partial_des.dump() + "\n" + good + "\n";
  try {
    parse_json_lines(text, validate_heartbeat_record, /*strict=*/true,
                         "heartbeat");
    FAIL() << "strict parse accepted a partial des section";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("heartbeat line 2"),
              std::string::npos)
        << e.what();
  }
  const HeartbeatLog log = parse_json_lines(
      text, validate_heartbeat_record, /*strict=*/false, "heartbeat");
  EXPECT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.skipped, 1u);
}

TEST(Heartbeat, IntegerFieldsAboveTwoToThe53AreRejected) {
  // Beyond 2^53 an integer field is no longer exact in a double, and
  // 1e300 would overflow the integer casts `live` and fold_heartbeat apply.
  const JsonValue good_record = heartbeat_to_json(sample_heartbeat());
  JsonValue at_cap = good_record;
  at_cap.set("seq", JsonValue(9007199254740992.0));  // 2^53
  EXPECT_EQ(validate_heartbeat_record(at_cap), "");
  JsonValue above_cap = good_record;
  above_cap.set("events", JsonValue(9007199254740994.0));  // 2^53 + 2
  EXPECT_NE(validate_heartbeat_record(above_cap), "");
  JsonValue huge_depth = good_record;
  JsonValue des = JsonValue::object();
  des.set("depth", JsonValue(1e300));
  des.set("max_depth", std::uint64_t{5});
  huge_depth.set("des", std::move(des));
  EXPECT_NE(validate_heartbeat_record(huge_depth), "");

  JsonValue huge_seq = good_record;
  huge_seq.set("seq", JsonValue(1e300));
  const std::string good = heartbeat_line(good_record);
  const std::string text =
      good + "\n" + huge_seq.dump() + "\n" + good + "\n";
  try {
    parse_json_lines(text, validate_heartbeat_record, /*strict=*/true,
                         "heartbeat");
    FAIL() << "strict parse accepted seq 1e300";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("heartbeat line 2"),
              std::string::npos)
        << e.what();
  }
  const HeartbeatLog log = parse_json_lines(
      text, validate_heartbeat_record, /*strict=*/false, "heartbeat");
  EXPECT_EQ(log.skipped, 1u);
  ASSERT_EQ(log.records.size(), 2u);
  // The skipped line leaves the aggregates of the rest as they were.
  const HeartbeatAggregates got = aggregate_heartbeats(log.records);
  const HeartbeatAggregates want =
      aggregate_heartbeats({good_record, good_record});
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.ticks, want.ticks);
  EXPECT_EQ(got.stalls, want.stalls);
  EXPECT_EQ(got.events_total, want.events_total);
  EXPECT_EQ(got.elapsed_s, want.elapsed_s);
  EXPECT_EQ(got.events_per_sec_max, want.events_per_sec_max);
  EXPECT_EQ(got.units_done, want.units_done);
  EXPECT_EQ(got.peak_rss_bytes, want.peak_rss_bytes);
}

TEST(Heartbeat, AggregatesFoldTicksStallsAndRates) {
  std::vector<JsonValue> records;
  Heartbeat hb = sample_heartbeat();
  hb.kind = "tick";
  hb.seq = 0;
  hb.t_ms = 1000.0;
  hb.events = 1000;
  hb.events_per_sec = 1000.0;
  hb.stalls = 0;
  records.push_back(heartbeat_to_json(hb));
  hb.seq = 1;
  hb.t_ms = 2000.0;
  hb.events = 4000;
  hb.events_per_sec = 3000.0;
  hb.stalls = 1;
  records.push_back(heartbeat_to_json(hb));
  hb.kind = "final";
  hb.t_ms = 2500.0;
  hb.events = 5000;
  hb.events_per_sec = 2000.0;
  records.push_back(heartbeat_to_json(hb));

  const HeartbeatAggregates agg = aggregate_heartbeats(records);
  EXPECT_EQ(agg.records, 3u);
  EXPECT_EQ(agg.ticks, 2u);
  EXPECT_EQ(agg.stalls, 1u);
  EXPECT_EQ(agg.events_total, 5000u);
  EXPECT_DOUBLE_EQ(agg.elapsed_s, 2.5);
  EXPECT_DOUBLE_EQ(agg.events_per_sec_mean, 2000.0);
  EXPECT_DOUBLE_EQ(agg.events_per_sec_max, 3000.0);
  EXPECT_EQ(agg.units_done, 42u);
  EXPECT_EQ(agg.units_total, 160u);
}

// ---- ProgressMeter ------------------------------------------------------

TEST(ProgressMeter, StopEmitsFinalHeartbeatAndAggregates) {
  TempFile stream("meter_final.heartbeat.jsonl");
  ProgressConfig cfg;
  cfg.target = "meter_test";
  cfg.interval_ms = 20;
  cfg.jsonl_path = stream.path;
  cfg.stderr_line = false;
  ProgressMeter meter(cfg);
  meter.start();
  EXPECT_THROW(meter.start(), std::runtime_error);

  EXPECT_TRUE(prof::live_feed_enabled());  // start() arms the feed
  feed(prof::kLiveUnitsTotal, 8);
  feed(prof::kLiveEvents, 5000);
  feed(prof::kLiveUnitsDone, 3);
  feed_sim_time_and_depth(1'500'000, 7);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  const MeterSummary summary = meter.stop();
  ASSERT_TRUE(summary.active);
  EXPECT_GE(summary.agg.records, 1u);
  EXPECT_EQ(summary.agg.events_total, 5000u);
  EXPECT_EQ(summary.agg.units_done, 3u);
  EXPECT_EQ(summary.agg.units_total, 8u);
  EXPECT_EQ(summary.agg.stalls, 0u);
  EXPECT_FALSE(prof::live_feed_enabled());  // stop() disarms the feed

  const HeartbeatLog log = read_heartbeat_log(stream.path, /*strict=*/true);
  ASSERT_FALSE(log.records.empty());
  const JsonValue& last = log.records.back();
  EXPECT_EQ(last.at("kind").as_string(), "final");
  EXPECT_EQ(last.at("target").as_string(), "meter_test");
  EXPECT_EQ(last.at("events").as_number(), 5000.0);
  EXPECT_EQ(last.at("sim_time_us").as_number(), 1500.0);
  EXPECT_EQ(last.at("des").at("depth").as_number(), 7.0);
  EXPECT_EQ(last.at("des").at("max_depth").as_number(), 7.0);

  // stop() is idempotent: the second call returns the same summary.
  EXPECT_EQ(meter.stop().agg.events_total, 5000u);
}

TEST(ProgressMeter, SummaryEqualsAggregatesOfTheStreamItWrote) {
  TempFile stream("meter_fold.heartbeat.jsonl");
  ProgressConfig cfg;
  cfg.target = "fold_test";
  cfg.interval_ms = 10;
  cfg.jsonl_path = stream.path;
  cfg.stderr_line = false;
  ProgressMeter meter(cfg);
  meter.start();
  feed(prof::kLiveUnitsTotal, 10);
  for (int i = 0; i < 5; ++i) {
    feed(prof::kLiveEvents, 1000);
    feed(prof::kLiveUnitsDone, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  const HeartbeatAggregates got = meter.stop().agg;
  const HeartbeatAggregates want = aggregate_heartbeats(
      read_heartbeat_log(stream.path, /*strict=*/true).records);

  ASSERT_GE(want.records, 2u);  // at least one tick plus the final record
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.ticks, want.ticks);
  EXPECT_EQ(got.stalls, want.stalls);
  EXPECT_EQ(got.events_total, want.events_total);
  // Doubles compared exactly: the stream stores shortest round-trip text.
  EXPECT_EQ(got.elapsed_s, want.elapsed_s);
  EXPECT_EQ(got.events_per_sec_mean, want.events_per_sec_mean);
  EXPECT_EQ(got.events_per_sec_max, want.events_per_sec_max);
  EXPECT_EQ(got.units_done, want.units_done);
  EXPECT_EQ(got.units_total, want.units_total);
  EXPECT_EQ(got.peak_rss_bytes, want.peak_rss_bytes);
  EXPECT_EQ(got.events_total, 5000u);
}

TEST(ProgressMeter, WatchdogFiresOnInjectedStallWithDiagnosticSnapshot) {
  TempFile stream("meter_stall.heartbeat.jsonl");
  std::mutex mu;
  std::vector<std::string> snapshots;
  ProgressConfig cfg;
  cfg.target = "stall_test";
  cfg.interval_ms = 400;  // ticks slower than the stall threshold
  cfg.jsonl_path = stream.path;
  cfg.stderr_line = false;
  cfg.stall_after_s = 0.05;
  cfg.stall_sink = [&](const std::string& s) {
    std::lock_guard<std::mutex> lock(mu);
    snapshots.push_back(s);
  };
  // A scheduler that has run has its health in the table the snapshot
  // dumps, the parallel.backlog gauge among it.
  parallel_for(8, [](std::size_t) {}, 2);
  ProgressMeter meter(cfg);
  meter.start();
  feed(prof::kLiveEvents, 100);
  feed_sim_time_and_depth(42'000, 5);
  // Freeze the counters: the progress signature stops changing, and the
  // watchdog must fire well within this window.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!snapshots.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const MeterSummary summary = meter.stop();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(snapshots.empty()) << "watchdog never fired";
  const std::string& snap = snapshots.front();
  EXPECT_NE(snap.find("stall watchdog"), std::string::npos) << snap;
  EXPECT_NE(snap.find("no progress for"), std::string::npos) << snap;
  EXPECT_NE(snap.find("des: queue depth"), std::string::npos) << snap;
  EXPECT_NE(snap.find("parallel.backlog 0"), std::string::npos) << snap;
  EXPECT_NE(snap.find("live.events 100"), std::string::npos) << snap;
  EXPECT_NE(snap.find("mem: rss"), std::string::npos) << snap;
  EXPECT_NE(snap.find("=== end stall snapshot ==="), std::string::npos)
      << snap;

  ASSERT_TRUE(summary.active);
  EXPECT_GE(summary.agg.stalls, 1u);
  const HeartbeatLog log = read_heartbeat_log(stream.path, /*strict=*/true);
  bool saw_stall_record = false;
  for (const JsonValue& r : log.records) {
    if (r.at("kind").as_string() == "stall") saw_stall_record = true;
  }
  EXPECT_TRUE(saw_stall_record);
}

TEST(ProgressMeter, FinalHeartbeatCountsEveryDesEvent) {
  TempFile stream("meter_des.heartbeat.jsonl");
  ProgressConfig cfg;
  cfg.target = "des_test";
  cfg.jsonl_path = stream.path;
  cfg.stderr_line = false;
  ProgressMeter meter(cfg);
  meter.start();
  sim::Simulator s;
  for (int i = 0; i < 1500; ++i) s.schedule_after(SimTime::us(i), [] {});
  s.run_until(SimTime::ms(10));
  const MeterSummary summary = meter.stop();

  ASSERT_EQ(s.events_executed(), 1500u);
  EXPECT_EQ(summary.agg.events_total, s.events_executed());
  const JsonValue last =
      read_heartbeat_log(stream.path, /*strict=*/true).records.back();
  EXPECT_EQ(last.at("events").as_number(), 1500.0);
  EXPECT_EQ(last.at("sim_time_us").as_number(), 10000.0);
  // Depth is sampled every 512 events; the max saw the full backlog.
  EXPECT_GT(last.at("des").at("max_depth").as_number(), 0.0);
}

TEST(ProgressMeter, GlobalMeterRefusesDoubleStart) {
  ProgressConfig cfg;
  cfg.target = "global_test";
  cfg.interval_ms = 50;
  cfg.stderr_line = false;
  start_global_meter(cfg);
  EXPECT_THROW(start_global_meter(cfg), std::runtime_error);
  const MeterSummary summary = stop_global_meter();
  EXPECT_TRUE(summary.active);
  EXPECT_FALSE(stop_global_meter().active);  // idempotent
}

// ---- sampled span tracer ------------------------------------------------

// `repeats` span trees per synthetic node: each tree is a root with two
// children (one nested grandchild), so 4 records per tree, all spanned.
std::vector<sim::TraceRecord> synthetic_trace(std::uint64_t seed_offset,
                                              std::size_t repeats) {
  std::vector<sim::TraceRecord> records;
  std::uint64_t next_span = 1;
  for (std::size_t i = 0; i < repeats; ++i) {
    const std::uint64_t root = next_span++;
    const std::uint64_t child_a = next_span++;
    const std::uint64_t child_b = next_span++;
    const std::uint64_t grandchild = next_span++;
    const auto t0 = SimTime::us(static_cast<std::int64_t>(
        1000 * i + 17 * seed_offset));
    const std::int64_t dur = static_cast<std::int64_t>(
        40 + (i * 13 + seed_offset * 7) % 120);
    records.push_back({t0, hw::CoreId{0}, sim::TraceCategory::kSyscallOffload,
                       SimTime::us(dur), "offload.write", root, 0});
    records.push_back({t0 + SimTime::us(1), hw::CoreId{0},
                       sim::TraceCategory::kSyscallOffload,
                       SimTime::us(dur / 4), "ikc.request", child_a, root});
    records.push_back({t0 + SimTime::us(2), hw::CoreId{1},
                       sim::TraceCategory::kSyscall, SimTime::us(dur / 8),
                       "proxy.exec", grandchild, child_a});
    records.push_back({t0 + SimTime::us(5), hw::CoreId{0},
                       sim::TraceCategory::kSyscallOffload,
                       SimTime::us(dur / 4), "ikc.reply", child_b, root});
  }
  return records;
}

TEST(SpanSampler, RateOneKeepsEveryTreeExactly) {
  const auto records = synthetic_trace(0, 25);
  SpanSamplerConfig cfg;
  cfg.seed = 7;
  const NodeSample sample = sample_node(cfg, 0, records);
  EXPECT_EQ(sample.roots_seen, 25u);
  EXPECT_EQ(sample.roots_kept, 25u);
  EXPECT_EQ(sample.records_kept, records.size());
  ASSERT_EQ(sample.records.size(), records.size());
  // One histogram per root label, fed by every root.
  ASSERT_EQ(sample.sketches.size(), 1u);
  EXPECT_EQ(sample.sketches.at("offload.write").total_count(), 25u);
}

TEST(SpanSampler, TenTimesLongerRunStaysWithinReservoirBound) {
  SpanSamplerConfig cfg;
  cfg.seed = 7;
  cfg.rate = 0.5;
  cfg.max_roots_per_node = 16;

  const NodeSample base = sample_node(cfg, 0, synthetic_trace(0, 40));
  const NodeSample ten_x = sample_node(cfg, 0, synthetic_trace(0, 400));

  // Raw side: hard memory bound, independent of run length.
  EXPECT_LE(base.roots_kept, cfg.max_roots_per_node);
  EXPECT_EQ(ten_x.roots_kept, cfg.max_roots_per_node);
  EXPECT_LE(ten_x.records_kept, cfg.max_roots_per_node * 4);
  // Distribution side: the histogram still covers the full population.
  EXPECT_EQ(ten_x.roots_seen, 400u);
  EXPECT_EQ(ten_x.sketches.at("offload.write").total_count(), 400u);
}

TEST(SpanSampler, PureFunctionOfConfigNodeAndRecords) {
  SpanSamplerConfig cfg;
  cfg.seed = 11;
  cfg.rate = 0.5;
  cfg.max_roots_per_node = 8;
  const auto records = synthetic_trace(3, 64);

  const NodeSample a = sample_node(cfg, 5, records);
  const NodeSample b = sample_node(cfg, 5, records);
  EXPECT_EQ(a.roots_kept, b.roots_kept);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].span, b.records[i].span);
    EXPECT_EQ(a.records[i].time, b.records[i].time);
  }
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.sketches.at("offload.write").quantile(q),
                     b.sketches.at("offload.write").quantile(q));
  }

  // Distinct node indices draw distinct streams: the kept sets differ
  // (deterministically, not statistically — these seeds are fixed).
  const NodeSample other = sample_node(cfg, 6, records);
  std::vector<std::uint64_t> spans_a, spans_other;
  for (const auto& r : a.records) spans_a.push_back(r.span);
  for (const auto& r : other.records) spans_other.push_back(r.span);
  EXPECT_NE(spans_a, spans_other);
}

}  // namespace
}  // namespace hpcos::obs::live
