// Streaming time-series layer: TimeSeries ring + 2x coarsening, SeriesSet,
// NodeTimeGrid, RegistrySampler, the OpenMetrics exposition round trip,
// BenchReport series export, and the FWQ campaign timeline (ledger
// reconciliation + RNG isolation + bounded memory).
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fwq_campaign.h"
#include "cluster/osenv.h"
#include "common/check.h"
#include "noise/profiles.h"
#include "obs/bench_report.h"
#include "obs/prof/counters.h"
#include "obs/timeseries/openmetrics.h"
#include "obs/timeseries/timeseries.h"
#include "sim/simulator.h"
#include "test_support.h"

namespace hpcos {
namespace {

using obs::ts::NodeTimeGrid;
using obs::ts::RegistrySampler;
using obs::ts::SeriesSet;
using obs::ts::TimeSeries;

double rel_diff(double a, double b) {
  const double diff = std::abs(a - b);
  if (diff == 0.0) return 0.0;
  return diff / std::max(std::abs(a), std::abs(b));
}

// ---------------------------------------------------------- TimeSeries

TEST(TimeSeries, RecordsIntoResolutionAlignedBuckets) {
  TimeSeries s(SimTime::us(10), 8);
  s.record(SimTime::us(3), 5.0);
  s.record(SimTime::us(9), 1.0);   // same bucket
  s.record(SimTime::us(10), 7.0);  // next bucket (half-open boundaries)
  EXPECT_EQ(s.bucket_count(), 2u);
  EXPECT_EQ(s.coarsen_count(), 0u);
  EXPECT_DOUBLE_EQ(s.bucket(0).min, 1.0);
  EXPECT_DOUBLE_EQ(s.bucket(0).max, 5.0);
  EXPECT_DOUBLE_EQ(s.bucket(0).sum, 6.0);
  EXPECT_EQ(s.bucket(0).count, 2u);
  EXPECT_DOUBLE_EQ(s.bucket(1).sum, 7.0);
  EXPECT_EQ(s.bucket_start(1), SimTime::us(10));
  EXPECT_EQ(s.window_end(), SimTime::us(80));
  // Weighted sample: weight occurrences of one value.
  s.record_n(SimTime::us(25), 2.0, 4);
  EXPECT_DOUBLE_EQ(s.bucket(2).sum, 8.0);
  EXPECT_EQ(s.bucket(2).count, 4u);
  EXPECT_DOUBLE_EQ(s.bucket(2).mean(), 2.0);
  // Zero-weight records are no-ops.
  s.record_n(SimTime::us(70), 99.0, 0);
  EXPECT_EQ(s.total_count(), 7u);
  EXPECT_DOUBLE_EQ(s.total_sum(), 21.0);
}

TEST(TimeSeries, MemoryStaysBoundedOnTenTimesLongerRun) {
  // Nominal window: 16 x 1 s. Stream 10x past it; the ring must coarsen
  // instead of growing, and totals must be preserved exactly.
  TimeSeries s(SimTime::sec(1), 16);
  double sum = 0.0;
  std::uint64_t count = 0;
  for (int t = 0; t < 160; ++t) {
    s.record(SimTime::sec(t), 1.0 + t);
    sum += 1.0 + t;
    ++count;
    ASSERT_LE(s.bucket_count(), s.capacity()) << "t=" << t;
  }
  EXPECT_GT(s.coarsen_count(), 0u);
  EXPECT_EQ(s.capacity(), 16u);
  EXPECT_DOUBLE_EQ(s.total_sum(), sum);
  EXPECT_EQ(s.total_count(), count);
  // Resolution grew by the coarsening factor and still covers the run.
  EXPECT_EQ(s.resolution(),
            SimTime::sec(1) * (std::int64_t{1} << s.coarsen_count()));
  EXPECT_GE(s.window_end(), SimTime::sec(160));
}

TEST(TimeSeries, CoarsenTwiceEqualsDirectFourTimesCoarserSeries) {
  // Downsampling idempotence: feed the same stream into a fine series
  // coarsened twice and a series recorded at 4x the resolution directly;
  // the buckets must be bitwise identical.
  TimeSeries fine(SimTime::us(5), 32);
  TimeSeries coarse(SimTime::us(20), 32);
  for (int i = 0; i < 40; ++i) {
    const SimTime t = SimTime::us(3 * i);
    // Integer-valued samples: bucket sums stay exact under any addition
    // order, so the comparison below can be bitwise.
    const double v = static_cast<double>((i * 5) % 11) - 4.0;
    fine.record(t, v);
    coarse.record(t, v);
  }
  fine.coarsen();
  fine.coarsen();
  ASSERT_EQ(fine.resolution(), coarse.resolution());
  ASSERT_EQ(fine.bucket_count(), coarse.bucket_count());
  for (std::size_t i = 0; i < fine.bucket_count(); ++i) {
    EXPECT_EQ(fine.bucket(i).count, coarse.bucket(i).count) << i;
    EXPECT_DOUBLE_EQ(fine.bucket(i).min, coarse.bucket(i).min) << i;
    EXPECT_DOUBLE_EQ(fine.bucket(i).max, coarse.bucket(i).max) << i;
    EXPECT_DOUBLE_EQ(fine.bucket(i).sum, coarse.bucket(i).sum) << i;
  }
}

TEST(TimeSeries, MergeAlignsPowerOfTwoRelatedResolutions) {
  // `this` coarser than `other`: other's copy is coarsened to align.
  TimeSeries coarse(SimTime::us(20), 8);
  coarse.record(SimTime::us(0), 4.0);
  TimeSeries fine(SimTime::us(5), 8);
  fine.record(SimTime::us(7), 1.0);
  fine.record(SimTime::us(25), 2.0);
  coarse.merge(fine);
  EXPECT_EQ(coarse.resolution(), SimTime::us(20));
  EXPECT_DOUBLE_EQ(coarse.bucket(0).sum, 5.0);  // 4.0 + 1.0 at t<20us
  EXPECT_DOUBLE_EQ(coarse.bucket(1).sum, 2.0);
  EXPECT_EQ(coarse.total_count(), 3u);

  // `this` finer than `other`: this coarsens itself first.
  TimeSeries fine2(SimTime::us(5), 8);
  fine2.record(SimTime::us(7), 1.0);
  TimeSeries coarse2(SimTime::us(10), 8);
  coarse2.record(SimTime::us(12), 3.0);
  fine2.merge(coarse2);
  EXPECT_EQ(fine2.resolution(), SimTime::us(10));
  EXPECT_DOUBLE_EQ(fine2.bucket(0).sum, 1.0);
  EXPECT_DOUBLE_EQ(fine2.bucket(1).sum, 3.0);

  // Non-power-of-two related resolutions and shape mismatches are errors.
  TimeSeries odd(SimTime::us(3), 8);
  odd.record(SimTime::us(0), 1.0);
  EXPECT_THROW(coarse.merge(odd), SimError);
  TimeSeries small(SimTime::us(20), 4);
  EXPECT_THROW(coarse.merge(small), SimError);
  TimeSeries empty_series;
  EXPECT_THROW(coarse.merge(empty_series), SimError);
  EXPECT_THROW(empty_series.record(SimTime::zero(), 1.0), SimError);
}

TEST(TimeSeries, ShardOrderMergeEqualsSinglePass) {
  std::vector<TimeSeries> shards(4, TimeSeries(SimTime::us(10), 16));
  TimeSeries whole(SimTime::us(10), 16);
  for (int i = 0; i < 500; ++i) {
    const SimTime t = SimTime::us((i * 13) % 900);  // forces coarsening
    const double v = static_cast<double>((i * 31) % 17) - 5.0;
    whole.record(t, v);
    shards[static_cast<std::size_t>(i) % shards.size()].record(t, v);
  }
  TimeSeries merged(SimTime::us(10), 16);
  for (const auto& s : shards) merged.merge(s);
  ASSERT_EQ(merged.resolution(), whole.resolution());
  ASSERT_EQ(merged.bucket_count(), whole.bucket_count());
  for (std::size_t i = 0; i < whole.bucket_count(); ++i) {
    EXPECT_EQ(merged.bucket(i).count, whole.bucket(i).count) << i;
    EXPECT_DOUBLE_EQ(merged.bucket(i).min, whole.bucket(i).min) << i;
    EXPECT_DOUBLE_EQ(merged.bucket(i).max, whole.bucket(i).max) << i;
  }
  EXPECT_DOUBLE_EQ(merged.total_sum(), whole.total_sum());
  EXPECT_EQ(merged.total_count(), whole.total_count());
}

// ----------------------------------------------------------- SeriesSet

TEST(SeriesSet, FindOrCreateReturnsStablePointers) {
  SeriesSet set;
  TimeSeries* a = set.series("b.metric", SimTime::us(10), 8);
  TimeSeries* b = set.series("a.metric", SimTime::us(10), 8);
  EXPECT_EQ(set.series("b.metric", SimTime::us(999), 4), a);  // find wins
  EXPECT_EQ(set.size(), 2u);
  a->record(SimTime::us(1), 1.0);
  EXPECT_EQ(set.find("b.metric"), a);
  EXPECT_EQ(set.find("missing"), nullptr);
  const auto sorted = set.sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].first, "a.metric");
  EXPECT_EQ(sorted[0].second, b);
  EXPECT_EQ(sorted[1].first, "b.metric");
}

// --------------------------------------------------------- NodeTimeGrid

TEST(NodeTimeGrid, BinsNodesAndTimeAndMerges) {
  NodeTimeGrid g(100, SimTime::sec(10), 4, 5);
  EXPECT_EQ(g.rows(), 4u);
  EXPECT_EQ(g.cols(), 5u);
  g.add(0, SimTime::zero(), 1.0);          // row 0, col 0
  g.add(99, SimTime::sec(10), 2.0);        // last row, col clamped to 4
  g.add(50, SimTime::sec(5), 3.0);         // row 2, col 2
  EXPECT_DOUBLE_EQ(g.cell(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.cell(3, 4), 2.0);
  EXPECT_DOUBLE_EQ(g.cell(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.total(), 6.0);
  EXPECT_DOUBLE_EQ(g.max_cell(), 3.0);
  // row_first_node inverts the forward binning.
  for (std::size_t row = 0; row < g.rows(); ++row) {
    const std::int64_t first = g.row_first_node(row);
    EXPECT_EQ(static_cast<std::size_t>(first * 4 / 100), row);
    if (first > 0) {
      EXPECT_LT(static_cast<std::size_t>((first - 1) * 4 / 100), row);
    }
  }

  NodeTimeGrid h(100, SimTime::sec(10), 4, 5);
  h.add(0, SimTime::zero(), 10.0);
  g.merge(h);
  EXPECT_DOUBLE_EQ(g.cell(0, 0), 11.0);
  NodeTimeGrid wrong(100, SimTime::sec(10), 2, 5);
  wrong.add(0, SimTime::zero(), 1.0);
  EXPECT_THROW(g.merge(wrong), SimError);
  // Merging into/from an empty grid is shape-adopting / a no-op.
  NodeTimeGrid empty_grid;
  empty_grid.merge(g);
  EXPECT_DOUBLE_EQ(empty_grid.cell(0, 0), 11.0);
  g.merge(NodeTimeGrid{});
  EXPECT_DOUBLE_EQ(g.total(), 16.0);
}

TEST(NodeTimeGrid, RowCountClampsToNodeCount) {
  NodeTimeGrid g(3, SimTime::sec(1), 32, 4);
  EXPECT_EQ(g.rows(), 3u);  // never more rows than nodes
  g.add(2, SimTime::from_ms(500), 1.0);
  EXPECT_DOUBLE_EQ(g.cell(2, 2), 1.0);
}

// ------------------------------------------------------ RegistrySampler

// A one-counter snapshot, the form SimNode::counters() returns.
obs::prof::CounterSnapshot one_counter(const std::string& name,
                                       std::uint64_t value) {
  return obs::prof::CounterSnapshot{{{name, value}}};
}

TEST(RegistrySampler, PollRecordsSnapshotDeltas) {
  std::uint64_t interrupt_ns = 0;
  SeriesSet out;
  RegistrySampler sampler(
      [&] { return one_counter("linux.interrupt_ns", interrupt_ns); }, &out,
      SimTime::from_ms(10), /*capacity=*/16, "node.");
  interrupt_ns += 100;
  sampler.poll(SimTime::zero());  // baseline snapshot, no sample yet
  EXPECT_EQ(sampler.samples(), 0u);
  interrupt_ns += 40;
  sampler.poll(SimTime::from_ms(5));  // within the period: no-op
  EXPECT_EQ(sampler.samples(), 0u);
  sampler.poll(SimTime::from_ms(10));
  interrupt_ns += 7;
  sampler.poll(SimTime::from_ms(20));
  EXPECT_EQ(sampler.samples(), 2u);
  const TimeSeries* s = out.find("node.linux.interrupt_ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total_count(), 2u);
  EXPECT_DOUBLE_EQ(s->bucket(1).sum, 40.0);  // delta, not absolute value
  EXPECT_DOUBLE_EQ(s->bucket(2).sum, 7.0);
}

TEST(RegistrySampler, SchedulePollsPeriodicallyOnTheSimulator) {
  std::uint64_t ticks = 0;
  sim::Simulator sim;
  // Bump the counter by 3 every 7 ms (off the sampler's 20 ms grid, so
  // no same-timestamp ordering ambiguity between tick and poll events).
  std::function<void()> tick = [&] {
    ticks += 3;
    sim.schedule_after(SimTime::from_ms(7), [&] { tick(); });
  };
  sim.schedule_after(SimTime::from_ms(7), [&] { tick(); });
  SeriesSet out;
  RegistrySampler sampler([&] { return one_counter("ticks", ticks); }, &out,
                          SimTime::from_ms(20));
  sampler.schedule(sim, SimTime::from_ms(100));
  sim.run_until(SimTime::from_ms(200));
  // Samples at t = 20..100 ms (t = 0 is the baseline); the deltas sum to
  // the 14 ticks (t = 7..98 ms) seen by the last sample.
  EXPECT_EQ(sampler.samples(), 5u);
  const TimeSeries* s = out.find("ticks");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total_count(), 5u);
  EXPECT_DOUBLE_EQ(s->total_sum(), 42.0);
}

// ---------------------------------------------------------- OpenMetrics

TEST(OpenMetrics, ExposesCountersAndSeries) {
  const obs::prof::CounterSnapshot counters{
      {{"a.first", 41}, {"b.second_ns", 7}}};
  SeriesSet set;
  TimeSeries* s = set.series("fwq.daemon-mix.overhead_us",
                             SimTime::from_ms(625), 96);
  s->record(SimTime::from_ms(100), 12.5);
  s->record(SimTime::from_ms(900), 2.5);

  const std::string text = obs::ts::openmetrics_text(counters, &set);
  EXPECT_NE(text.find("# TYPE hpcos_counter counter\n"), std::string::npos);
  EXPECT_NE(text.find("hpcos_counter_total{name=\"a.first\"} 41\n"),
            std::string::npos);
  EXPECT_NE(text.find("# EOF\n"), std::string::npos);

  const auto samples = obs::ts::parse_openmetrics(text);
  // 2 counters + 3 series stats.
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_EQ(samples[0].metric, "hpcos_counter_total");
  EXPECT_EQ(samples[0].label("name"), "a.first");
  EXPECT_DOUBLE_EQ(samples[0].value, 41.0);
  double series_sum = -1.0;
  double series_count = -1.0;
  double resolution_us = -1.0;
  for (const auto& sample : samples) {
    if (sample.metric == "hpcos_series" &&
        sample.label("name") == "fwq.daemon-mix.overhead_us") {
      if (sample.label("stat") == "sum") series_sum = sample.value;
      if (sample.label("stat") == "count") series_count = sample.value;
      if (sample.label("stat") == "resolution_us") {
        resolution_us = sample.value;
      }
    }
  }
  EXPECT_DOUBLE_EQ(series_sum, 15.0);
  EXPECT_DOUBLE_EQ(series_count, 2.0);
  EXPECT_DOUBLE_EQ(resolution_us, 625e3);
}

TEST(OpenMetrics, EscapedLabelValuesRoundTrip) {
  const auto samples = obs::ts::parse_openmetrics(obs::ts::openmetrics_text(
      one_counter("weird\\name\"with\nnewline", 3)));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].label("name"), "weird\\name\"with\nnewline");
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
}

TEST(OpenMetrics, StrictParserRejectsMalformedInput) {
  EXPECT_THROW(obs::ts::parse_openmetrics("x{name=\"a\"} 1\n"),
               std::runtime_error);  // missing # EOF
  EXPECT_THROW(obs::ts::parse_openmetrics("# EOF\nx 1\n"),
               std::runtime_error);  // content after EOF
  EXPECT_THROW(obs::ts::parse_openmetrics("x{name=a} 1\n# EOF\n"),
               std::runtime_error);  // unquoted label value
  EXPECT_THROW(obs::ts::parse_openmetrics("x{name=\"a} 1\n# EOF\n"),
               std::runtime_error);  // unterminated label value
  EXPECT_THROW(obs::ts::parse_openmetrics("x{name=\"a\"} oops\n# EOF\n"),
               std::runtime_error);  // non-numeric value
  EXPECT_THROW(obs::ts::parse_openmetrics("x{name=\"a\"}1\n# EOF\n"),
               std::runtime_error);  // missing value separator
  // The empty exposition (just the terminator) is valid.
  EXPECT_TRUE(obs::ts::parse_openmetrics("# EOF\n").empty());
}

// Satellite bugfix regression: every counter in the OpenMetrics
// exposition must parse back to exactly the value the BenchReport JSON
// carries under counter.<name> — the two exports must never disagree on
// a counter's name or value.
TEST(ObsRoundTrip, OpenMetricsCountersMatchBenchReportJson) {
  const obs::prof::CounterSnapshot counters{
      {{"ikc.to_host.posted", 0},  // zero-valued counter
       {"linux.interrupt_ns", 123456789012345ull},
       {"lwk.sched.dispatches", 7},
       {"lwk.syscalls.local", 42}}};

  obs::BenchReport report("round_trip", true, 1);
  obs::ts::add_registry_metrics(report, counters, "counter");
  const JsonValue doc = report.to_json();
  EXPECT_EQ(obs::validate_bench_report(doc), "");

  const auto samples =
      obs::ts::parse_openmetrics(obs::ts::openmetrics_text(counters));
  std::size_t counters_checked = 0;
  for (const auto& sample : samples) {
    if (sample.metric != "hpcos_counter_total") continue;
    const std::string json_name = "counter." + sample.label("name");
    double json_value = -1.0;
    bool found = false;
    for (const JsonValue& m : doc.at("metrics").as_array()) {
      if (m.at("name").as_string() == json_name) {
        json_value = m.at("value").as_number();
        found = true;
      }
    }
    ASSERT_TRUE(found) << "no JSON metric for " << json_name;
    EXPECT_EQ(sample.value, json_value) << json_name;
    ++counters_checked;
  }
  EXPECT_EQ(counters_checked, 4u);
}

// ------------------------------------------------- BenchReport series

TEST(BenchReport, SeriesExportValidatesAndDumpsBuckets) {
  obs::BenchReport report("series_unit", true, 3);
  report.add_metric("dummy", "count", 1.0);
  TimeSeries s(SimTime::us(100), 8);
  s.record(SimTime::us(50), 2.0);
  s.record(SimTime::us(450), 6.0);
  report.add_series("bsp.compute_us", "us", s);
  EXPECT_EQ(report.series_count(), 1u);
  const JsonValue doc = report.to_json();
  EXPECT_EQ(obs::validate_bench_report(doc), "");
  const JsonValue* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->as_array().size(), 1u);
  const JsonValue& entry = series->as_array()[0];
  EXPECT_EQ(entry.at("name").as_string(), "bsp.compute_us");
  EXPECT_EQ(entry.at("unit").as_string(), "us");
  EXPECT_DOUBLE_EQ(entry.at("resolution_us").as_number(), 100.0);
  // Empty buckets are elided: two non-empty buckets only.
  const auto& buckets = entry.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].at("t_us").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("sum").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("t_us").as_number(), 400.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("max").as_number(), 6.0);
}

// -------------------------------------------------- campaign timeline

cluster::FwqCampaignConfig timeline_config() {
  cluster::FwqCampaignConfig config;
  config.nodes = 32;
  config.app_cores = 8;
  config.duration_per_core = SimTime::sec(30);
  config.seed = Seed{21};
  config.timeline = true;
  return config;
}

TEST(CampaignTimeline, SeriesTotalsReconcileWithLedgerSlots) {
  const auto profile = noise::fugaku_linux_profile();
  const auto result = cluster::run_fwq_campaign(profile, timeline_config());
  ASSERT_TRUE(result.timeline.enabled);
  ASSERT_EQ(result.timeline.per_source.size(), result.per_source.size());
  ASSERT_EQ(result.timeline.sketches.size(), result.per_source.size());

  double series_total = 0.0;
  for (std::size_t i = 0; i < result.per_source.size(); ++i) {
    const auto& slot = result.per_source[i];
    const auto& series = result.timeline.per_source[i];
    const auto& sketch = result.timeline.sketches[i];
    // The acceptance invariant: the streamed series adds the exact same
    // overhead * weight products as the attribution ledger.
    EXPECT_LT(rel_diff(series.total_sum(), slot.stolen_us), 1e-9)
        << slot.source;
    series_total += series.total_sum();
    if (slot.stolen_us > 0.0) {
      EXPECT_GT(sketch.total_count(), 0u) << slot.source;
      EXPECT_GE(sketch.quantile(0.99), 0.0) << slot.source;
    }
    // In-window samples at the derived resolution never overflow the ring.
    EXPECT_EQ(series.coarsen_count(), 0u) << slot.source;
    EXPECT_LE(series.bucket_count(), series.capacity()) << slot.source;
  }
  // The heatmap accumulates the same products, so its total matches too.
  EXPECT_LT(rel_diff(result.timeline.heatmap.total(), series_total), 1e-9);
  EXPECT_GT(result.timeline.heatmap.total(), 0.0);
}

TEST(CampaignTimeline, EnablingTimelineDoesNotShiftCampaignStatistics) {
  // Timeline timestamps draw from a dedicated RNG substream: the
  // committed bench baselines depend on the campaign statistics being
  // bit-identical whether or not the timeline is on.
  const auto profile = noise::fugaku_linux_profile();
  auto config = timeline_config();
  config.timeline = false;
  const auto off = cluster::run_fwq_campaign(profile, config);
  config.timeline = true;
  const auto on = cluster::run_fwq_campaign(profile, config);
  EXPECT_EQ(off.total_iterations, on.total_iterations);
  EXPECT_EQ(off.stats.samples, on.stats.samples);
  EXPECT_EQ(off.stats.t_max, on.stats.t_max);
  EXPECT_DOUBLE_EQ(off.stats.noise_rate, on.stats.noise_rate);
  ASSERT_EQ(off.per_source.size(), on.per_source.size());
  for (std::size_t i = 0; i < off.per_source.size(); ++i) {
    EXPECT_EQ(off.per_source[i].stolen_us, on.per_source[i].stolen_us) << i;
    EXPECT_EQ(off.per_source[i].worst_us, on.per_source[i].worst_us) << i;
  }
  EXPECT_FALSE(off.timeline.enabled);
  EXPECT_TRUE(on.timeline.per_source.size() > 0);
}

}  // namespace
}  // namespace hpcos
