// Cross-run trend analysis (obs/trend): grouping, sparklines, regression
// flags under the shared tolerance policy, drift changepoints, and the
// OpenMetrics export round trip.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/bench_report.h"
#include "obs/explain/explain.h"
#include "obs/runlog.h"
#include "obs/timeseries/openmetrics.h"
#include "obs/trend.h"
#include "test_support.h"

namespace hpcos {
namespace {

namespace trend = obs::trend;

// One ledger record with a single metric value (plus optional percentile).
JsonValue record_with(const std::string& target, const std::string& knob,
                      double value, double p99 = -1.0) {
  obs::BenchReport report(target, /*quick=*/true, /*seed=*/1);
  obs::BenchMetric m{.name = "fwq.noise_rate", .unit = "ratio",
                     .value = value, .percentiles = {}};
  if (p99 >= 0.0) m.percentiles["p99"] = p99;
  report.add_metric(std::move(m));
  JsonValue config = JsonValue::object();
  config.set("schema", "hpcos-config-test/1");
  config.set("knob", knob);
  return obs::make_run_record(report, config, "2026-08-08T00:00:00Z");
}

std::vector<JsonValue> history(const std::string& target,
                               const std::string& knob,
                               const std::vector<double>& values) {
  std::vector<JsonValue> records;
  for (const double v : values) {
    records.push_back(record_with(target, knob, v));
  }
  return records;
}

// ------------------------------------------------------------- grouping

TEST(Trend, GroupsByTargetAndConfigHashAndFlattensPercentiles) {
  std::vector<JsonValue> records;
  records.push_back(record_with("bench_a", "x", 1.0, /*p99=*/2.0));
  records.push_back(record_with("bench_a", "x", 1.1, /*p99=*/2.2));
  records.push_back(record_with("bench_a", "y", 5.0));  // other config
  records.push_back(record_with("bench_b", "x", 9.0));  // other target

  const auto groups = trend::group_records(records);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].target, "bench_a");
  EXPECT_EQ(groups[0].records.size(), 2u);
  ASSERT_EQ(groups[0].metrics.size(), 2u);
  EXPECT_EQ(groups[0].metrics[0].name, "fwq.noise_rate");
  EXPECT_EQ(groups[0].metrics[0].values,
            (std::vector<double>{1.0, 1.1}));
  // Percentiles flatten to "<name>.<pN>" exactly as bench_diff does.
  EXPECT_EQ(groups[0].metrics[1].name, "fwq.noise_rate.p99");
  EXPECT_EQ(groups[0].metrics[1].values,
            (std::vector<double>{2.0, 2.2}));
  EXPECT_EQ(groups[1].records.size(), 1u);
  EXPECT_EQ(groups[2].target, "bench_b");
  // Same target, different config hash -> different groups.
  EXPECT_NE(groups[0].config_hash, groups[1].config_hash);
}

TEST(Trend, HostMetricsAreTrackedButNeverJudged) {
  // host.* metrics ride in the record's host half; trend must fold them
  // into the group series (the throughput trajectory across commits) but
  // the regression and drift scans must never flag them, no matter how
  // hard they move — wall-clock rates follow the machine, not the code.
  std::vector<JsonValue> records;
  for (const double rate : {3.0e6, 3.1e6, 0.2e6, 0.21e6, 0.2e6, 0.19e6}) {
    obs::BenchReport report("fwq_quick", /*quick=*/true, /*seed=*/1);
    report.add_metric("fwq.noise_rate", "ratio", 1.0);
    report.add_metric("host.progress.events_per_sec.mean", "rate", rate);
    JsonValue config = JsonValue::object();
    config.set("schema", "hpcos-config-test/1");
    records.push_back(
        obs::make_run_record(report, config, "2026-08-08T00:00:00Z"));
  }

  const auto groups = trend::group_records(records);
  ASSERT_EQ(groups.size(), 1u);
  const trend::MetricSeries* host_series = nullptr;
  for (const trend::MetricSeries& m : groups[0].metrics) {
    if (m.name == "host.progress.events_per_sec.mean") host_series = &m;
  }
  ASSERT_NE(host_series, nullptr) << "host metric missing from the group";
  EXPECT_EQ(host_series->values.size(), 6u);
  EXPECT_EQ(host_series->values.front(), 3.0e6);

  // A 15x collapse in a host rate: neither scan may flag it (the
  // deterministic metric is constant, so any flag here is the host one).
  EXPECT_TRUE(trend::find_regressions(groups, obs::DiffPolicy{}).empty());
  EXPECT_TRUE(trend::find_drift(groups).empty());
}

// ----------------------------------------------------------- statistics

TEST(Trend, MedianAndMadAreRobust) {
  EXPECT_EQ(trend::median({3.0}), 3.0);
  EXPECT_EQ(trend::median({1.0, 9.0, 2.0}), 2.0);
  EXPECT_EQ(trend::median({1.0, 2.0, 3.0, 100.0}), 2.5);
  EXPECT_EQ(trend::median({}), 0.0);
}

TEST(Trend, SparklineSpansRampAndClampsWidth) {
  const std::string line = trend::sparkline({0.0, 0.5, 1.0});
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line.front(), '.');  // min maps to the bottom of the ramp
  EXPECT_EQ(line.back(), '@');   // max maps to the top
  // Constant series: flat mid-ramp, not a divide-by-zero artifact.
  const std::string flat = trend::sparkline({2.0, 2.0, 2.0, 2.0});
  EXPECT_EQ(flat, std::string(4, flat[0]));
  // Width clamp keeps the most recent values.
  const std::string clipped =
      trend::sparkline({0.0, 0.0, 0.0, 1.0, 1.0}, /*max_width=*/2);
  EXPECT_EQ(clipped.size(), 2u);
}

// ---------------------------------------------------------- regressions

TEST(Trend, FlagsInjectedShiftBeyondToleranceAndNamesTheMetric) {
  const auto groups = trend::group_records(
      history("fwq_quick", "x", {1.0, 1.0, 1.0, 1.0, 1.5}));
  obs::DiffPolicy policy;  // fallback rel=0.05
  const auto regressions = trend::find_regressions(groups, policy);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].target, "fwq_quick");
  EXPECT_EQ(regressions[0].metric, "fwq.noise_rate");
  EXPECT_EQ(regressions[0].baseline, 1.0);  // median of the prior runs
  EXPECT_EQ(regressions[0].current, 1.5);
  EXPECT_NEAR(regressions[0].rel_delta, 0.5, 1e-12);
}

TEST(Trend, WithinToleranceIgnoredAndIgnoreRulesRespected) {
  obs::DiffPolicy policy;  // fallback rel=0.05
  // 3% drift on a rel=5% allowance: clean.
  EXPECT_TRUE(trend::find_regressions(
                  trend::group_records(
                      history("b", "x", {1.0, 1.0, 1.0, 1.03})),
                  policy)
                  .empty());
  // Same shift as the failing case, but on a host.* metric: tracked,
  // never judged.
  std::vector<JsonValue> host_runs;
  for (const double v : {1.0, 1.0, 1.0, 1.5}) {
    obs::BenchReport report("b", /*quick=*/true, /*seed=*/1);
    report.add_metric("host.fwq.wall_s", "s", v);
    host_runs.push_back(obs::make_run_record(report, JsonValue::object(),
                                             "2026-08-08T00:00:00Z"));
  }
  const auto host_groups = trend::group_records(host_runs);
  ASSERT_EQ(host_groups.size(), 1u);
  ASSERT_EQ(host_groups[0].metrics.size(), 1u);
  EXPECT_EQ(host_groups[0].metrics[0].name, "host.fwq.wall_s");
  EXPECT_TRUE(trend::find_regressions(host_groups, policy).empty());
  // Single-run groups have no history to regress against.
  EXPECT_TRUE(trend::find_regressions(
                  trend::group_records(history("b", "x", {1.0})),
                  obs::DiffPolicy{})
                  .empty());
}

TEST(Trend, MetricDroppedByNewestRunIsNotFlagged) {
  // a.x reads 1, 1, 5 and then the newest run stops emitting it. The
  // newest run carries no a.x to judge, so trend must not flag the stale
  // 5; explain over the same pair lists a.x as dropped and finds no cause.
  std::vector<JsonValue> records;
  JsonValue config = JsonValue::object();
  config.set("schema", "hpcos-config-test/1");
  for (const double x : {1.0, 1.0, 5.0, -1.0}) {
    obs::BenchReport report("demo", /*quick=*/true, /*seed=*/1);
    if (x >= 0.0) report.add_metric("a.x", "us", x);
    report.add_metric("a.y", "us", 2.0);
    records.push_back(
        obs::make_run_record(report, config, "2026-08-08T00:00:00Z"));
  }
  const auto groups = trend::group_records(records);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(trend::find_regressions(groups, obs::DiffPolicy{}).empty());

  const obs::explain::ExplainReport report = obs::explain::explain_runs(
      trend::median_of_prior(records), trend::snapshot_newest(records),
      obs::DiffPolicy{});
  EXPECT_EQ(report.metrics.missing_in_current,
            (std::vector<std::string>{"a.x"}));
  EXPECT_TRUE(report.causes.empty());
}

TEST(Trend, RegressionBaselineIsRobustToOneEarlierOutlier) {
  // A single historical spike must not drag the baseline (median, not
  // mean): the newest value equals the typical history, so no flag.
  const auto groups = trend::group_records(
      history("b", "x", {1.0, 1.0, 8.0, 1.0, 1.0, 1.0}));
  EXPECT_TRUE(
      trend::find_regressions(groups, obs::DiffPolicy{}).empty());
}

// ---------------------------------------------------------------- drift

TEST(Trend, DriftDetectsStepAndPlacesTheSplit) {
  // Slow creep below per-run tolerance: 12 runs, step of +4% at run 6
  // with tiny noise. Pairwise checks at rel=5% never fire; the
  // changepoint must.
  const auto groups = trend::group_records(history(
      "b", "x", {1.000, 1.001, 0.999, 1.000, 1.001, 0.999,
                 1.040, 1.041, 1.039, 1.040, 1.041, 1.039}));
  const auto drifts = trend::find_drift(groups);
  ASSERT_GE(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].metric, "fwq.noise_rate");
  // Placement on noisy data is approximate (the max-score split can land
  // a run or two late when the uneven segmentation shrinks the pooled
  // MAD); the level estimates must still bracket the true step.
  EXPECT_GE(drifts[0].split, 6u);
  EXPECT_LE(drifts[0].split, 8u);
  EXPECT_NEAR(drifts[0].before_median, 1.000, 2e-3);
  EXPECT_NEAR(drifts[0].after_median, 1.040, 2e-3);
  EXPECT_GT(drifts[0].score, 6.0);
}

TEST(Trend, DriftQuietOnNoiseAndOnConstantSeries) {
  EXPECT_TRUE(trend::find_drift(
                  trend::group_records(history(
                      "b", "x", {1.0, 1.2, 0.9, 1.1, 0.95, 1.05, 1.15,
                                 0.85, 1.0, 1.1})))
                  .empty());
  EXPECT_TRUE(trend::find_drift(
                  trend::group_records(history(
                      "b", "x", {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0})))
                  .empty());
  // A step on an exactly-constant history is a clean detection (the MAD
  // floor, not a divide-by-zero).
  const auto drifts = trend::find_drift(trend::group_records(
      history("b", "x", {1.0, 1.0, 1.0, 2.0, 2.0, 2.0})));
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].split, 3u);
}

// ------------------------------------------------- OpenMetrics round trip

TEST(Trend, OpenMetricsExportRoundTripsThroughStrictParser) {
  std::vector<JsonValue> records = history("bench_a", "x", {1.0, 3.0, 2.0});
  const auto more = history("bench_b", "y", {5.0});
  records.insert(records.end(), more.begin(), more.end());
  const auto groups = trend::group_records(records);

  const std::string text = trend::trend_openmetrics_text(groups);
  const auto samples = obs::ts::parse_openmetrics(text);

  // 2 runs gauges + (1 metric x 2 stats) x 2 groups = 6 samples.
  ASSERT_EQ(samples.size(), 6u);
  bool saw_last = false;
  bool saw_median = false;
  bool saw_runs = false;
  for (const auto& s : samples) {
    if (s.metric == "hpcos_trend_runs" &&
        s.label("target") == "bench_a") {
      EXPECT_EQ(s.value, 3.0);
      EXPECT_EQ(s.label("config"), groups[0].config_hash);
      saw_runs = true;
    }
    if (s.metric == "hpcos_trend" && s.label("target") == "bench_a" &&
        s.label("metric") == "fwq.noise_rate") {
      if (s.label("stat") == "last") {
        EXPECT_EQ(s.value, 2.0);
        saw_last = true;
      } else if (s.label("stat") == "median") {
        EXPECT_EQ(s.value, 2.0);
        saw_median = true;
      }
    }
  }
  EXPECT_TRUE(saw_runs);
  EXPECT_TRUE(saw_last);
  EXPECT_TRUE(saw_median);
}

}  // namespace
}  // namespace hpcos
