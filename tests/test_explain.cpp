// Regression root-cause explainer (obs/explain): snapshot construction,
// group selection, the four diff layers, cause ranking, the attribution
// reconciliation invariant, and — the contract the tooling stands on —
// agreement between trend's flagged metric and the explainer's top-ranked
// metric over the same ledger.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/confighash.h"
#include "common/histogram.h"
#include "common/json.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/explain/explain.h"
#include "obs/runlog.h"
#include "obs/trend.h"
#include "sim/trace.h"
#include "test_support.h"

namespace hpcos {
namespace {

namespace ex = obs::explain;
namespace trend = obs::trend;

JsonValue fixture_config(double noise_rate = 0.003) {
  JsonValue c = JsonValue::object();
  c.set("schema", "hpcos-config-test/1");
  c.set("workload", "fwq");
  c.set("noise_rate", noise_rate);
  return c;
}

// The in-memory twin of bench/fixtures/explain_regressed.jsonl: healthy
// runs hold per-source steals (100, 150, 50) summing to the 300 total;
// the regressed run doubles kworker (and only kworker), so the injected
// cause is unambiguous and Σ(per-source deltas) == Δtotal exactly.
JsonValue fixture_record(int i, bool regressed) {
  obs::BenchReport r("noise_fixture", /*quick=*/true, /*seed=*/2026);
  const double kworker = regressed ? 200.0 : 100.0;
  r.add_metric("fwq.total_us", "us", regressed ? 10450.0 : 10000.0);
  r.add_metric("attrib.total_stolen_us", "us", kworker + 150.0 + 50.0);
  r.add_metric("attrib.src.kworker.stolen_us", "us", kworker);
  r.add_metric("attrib.src.fib-manager.stolen_us", "us", 150.0);
  r.add_metric("attrib.src.blk-mq.stolen_us", "us", 50.0);
  r.add_metric(obs::BenchMetric{
      .name = "span.bsp:compute.self_us",
      .unit = "us",
      .value = regressed ? 5600.0 : 5000.0,
      .percentiles = {{"p50", regressed ? 2.1 : 2.0},
                      {"p99", regressed ? 6.5 : 4.0}}});
  r.add_metric("host.wall_s", "s", 1.0 + 0.1 * i);
  return obs::make_run_record(r, fixture_config(),
                              "2026-08-08T00:00:0" + std::to_string(i) +
                                  "Z");
}

std::vector<JsonValue> fixture_group() {
  std::vector<JsonValue> records;
  for (int i = 0; i < 4; ++i) records.push_back(fixture_record(i, false));
  records.push_back(fixture_record(4, true));
  return records;
}

// ---------------------------------------------------------- snapshots

TEST(ExplainSnapshot, FlattensPercentilesAndHostMetrics) {
  const trend::RunSnapshot snap =
      trend::snapshot_from_record(fixture_record(0, false));
  EXPECT_EQ(snap.target, "noise_fixture");
  EXPECT_EQ(snap.config_hash, config_hash_hex(fixture_config()));
  auto value_of = [&](const std::string& name) -> double {
    for (const auto& m : snap.metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return NAN;
  };
  EXPECT_EQ(value_of("span.bsp:compute.self_us"), 5000.0);
  EXPECT_EQ(value_of("span.bsp:compute.self_us.p50"), 2.0);
  EXPECT_EQ(value_of("span.bsp:compute.self_us.p99"), 4.0);
  // host.* metrics flatten into the same namespace (quarantine is the
  // metric layer's job, not the snapshot's).
  EXPECT_EQ(value_of("host.wall_s"), 1.0);
}

TEST(ExplainSnapshot, GroupSelectionErrorsAreSpecific) {
  std::vector<JsonValue> records = fixture_group();
  // A second config group for the same target: selection without a
  // prefix must refuse and list both hashes.
  obs::BenchReport other("noise_fixture", true, 2026);
  other.add_metric("fwq.total_us", "us", 1.0);
  records.push_back(obs::make_run_record(other, fixture_config(0.004),
                                         "2026-08-08T00:00:09Z"));

  std::vector<JsonValue> group;
  const std::string ambiguous =
      trend::select_group(records, "noise_fixture", "", &group);
  EXPECT_NE(ambiguous.find("2 config groups"), std::string::npos);
  EXPECT_NE(ambiguous.find(config_hash_hex(fixture_config())),
            std::string::npos);

  // A hash prefix disambiguates; 8 characters is enough.
  const std::string prefix =
      config_hash_hex(fixture_config()).substr(0, 8);
  EXPECT_EQ(trend::select_group(records, "noise_fixture", prefix, &group),
            "");
  EXPECT_EQ(group.size(), 5u);

  EXPECT_NE(trend::select_group(records, "no_such_target", "", &group), "");
}

TEST(ExplainSnapshot, MedianOfPriorMatchesTrendBaseline) {
  const auto group = fixture_group();
  const trend::RunSnapshot base = trend::median_of_prior(group);
  // trend's regression baseline for the same group must be the same
  // number — the two tools must judge the identical pair.
  const auto groups = obs::trend::group_records(group);
  ASSERT_EQ(groups.size(), 1u);
  for (const auto& m : groups[0].metrics) {
    std::vector<double> prior(m.values.begin(), m.values.end() - 1);
    for (const auto& fm : base.metrics) {
      if (fm.name == m.name) {
        EXPECT_EQ(fm.value, trend::median(prior)) << m.name;
      }
    }
  }
  EXPECT_THROW((void)trend::median_of_prior({group[0]}), std::runtime_error);
}

// ------------------------------------------------------------- layers

TEST(ExplainLayers, RanksInjectedCauseFirstAndQuarantinesHost) {
  const auto group = fixture_group();
  const ex::ExplainReport report = ex::explain_runs(
      trend::median_of_prior(group), trend::snapshot_newest(group),
      obs::DiffPolicy{});

  // Config layer: same hash, so no config causes and an empty diff.
  EXPECT_TRUE(report.config_known);
  EXPECT_TRUE(report.hash_equal);
  EXPECT_TRUE(report.config_diff.empty());

  // Metric layer: the kworker jump (rel 1.0) outranks everything.
  ASSERT_FALSE(report.metrics.deltas.empty());
  EXPECT_EQ(report.metrics.deltas.front().metric,
            "attrib.src.kworker.stolen_us");
  // host.* never reaches the judged deltas or causes; it lands in the
  // advisory host list.
  for (const auto& d : report.metrics.deltas) {
    EXPECT_NE(d.metric.rfind("host.", 0), 0u) << d.metric;
  }
  ASSERT_EQ(report.metrics.host.size(), 1u);
  EXPECT_EQ(report.metrics.host[0].metric, "host.wall_s");

  // Cause list: the attribution layer names the injected source first.
  ASSERT_FALSE(report.causes.empty());
  EXPECT_EQ(report.causes.front().layer, ex::CauseLayer::kAttrib);
  EXPECT_EQ(report.causes.front().name, "kworker");
  for (const auto& c : report.causes) {
    EXPECT_NE(c.metric.rfind("host.", 0), 0u) << c.metric;
  }

  // Span layer: the bsp:compute self-time and p99 movement is captured.
  ASSERT_EQ(report.spans.rows.size(), 1u);
  EXPECT_EQ(report.spans.rows[0].label, "bsp:compute");
  EXPECT_TRUE(report.spans.rows[0].has_quantiles);
  EXPECT_EQ(report.spans.rows[0].p99_base, 4.0);
  EXPECT_EQ(report.spans.rows[0].p99_current, 6.5);
}

TEST(ExplainLayers, AttributionReconcilesToTolerance) {
  const auto group = fixture_group();
  const ex::ExplainReport report = ex::explain_runs(
      trend::median_of_prior(group), trend::snapshot_newest(group),
      obs::DiffPolicy{});
  ASSERT_TRUE(report.attrib.present);
  EXPECT_EQ(report.attrib.total_delta_us, 100.0);
  EXPECT_EQ(report.attrib.source_delta_sum_us, 100.0);
  EXPECT_LT(report.attrib.reconciliation_error, ex::kReconcileTol);
  EXPECT_TRUE(report.attrib.reconciled);
  // Ranked per-source rows: the mover first, with the whole share.
  ASSERT_EQ(report.attrib.rows.size(), 3u);
  EXPECT_EQ(report.attrib.rows[0].source, "kworker");
  EXPECT_EQ(report.attrib.rows[0].share, 1.0);
}

TEST(ExplainLayers, DivergentAttributionIsFlaggedNotHidden) {
  // Break the invariant on purpose: the total moves by 100 but the only
  // per-source delta is 60. The layer must report DIVERGED, because a
  // gap means a source escaped attribution — exactly what an operator
  // needs to see.
  trend::RunSnapshot base;
  base.target = "t";
  base.metrics = {{"attrib.total_stolen_us", "us", 300.0},
                  {"attrib.src.kworker.stolen_us", "us", 300.0}};
  trend::RunSnapshot current = base;
  current.metrics = {{"attrib.total_stolen_us", "us", 400.0},
                     {"attrib.src.kworker.stolen_us", "us", 360.0}};
  const ex::ExplainReport report =
      ex::explain_runs(base, current, obs::DiffPolicy{});
  ASSERT_TRUE(report.attrib.present);
  EXPECT_FALSE(report.attrib.reconciled);
  EXPECT_NEAR(report.attrib.reconciliation_error, 0.4, 1e-12);
}

TEST(ExplainLayers, ConfigKnobChangeOutranksEveryMeasuredDelta) {
  const auto group = fixture_group();
  trend::RunSnapshot base = trend::median_of_prior(group);
  trend::RunSnapshot current = trend::snapshot_newest(group);
  // Same measured regression, but the current run also changed a knob:
  // the knob is definitionally the top cause, however large the metric
  // movement.
  current.config = fixture_config(0.0042);
  current.config_hash = config_hash_hex(current.config);
  const ex::ExplainReport report =
      ex::explain_runs(std::move(base), std::move(current),
                       obs::DiffPolicy{});
  EXPECT_FALSE(report.hash_equal);
  ASSERT_EQ(report.config_diff.size(), 1u);
  EXPECT_EQ(report.config_diff[0].path, "noise_rate");
  ASSERT_FALSE(report.causes.empty());
  EXPECT_EQ(report.causes.front().layer, ex::CauseLayer::kConfig);
  EXPECT_EQ(report.causes.front().name, "noise_rate");
  EXPECT_TRUE(std::isinf(report.causes.front().score));
}

// ------------------------------------------------- the tooling contract

TEST(ExplainContract, TopMetricMatchesTrendFlaggedMetric) {
  const auto group = fixture_group();
  obs::DiffPolicy policy;  // default 5% rel — both tools use the same one
  const auto regressions =
      obs::trend::find_regressions(obs::trend::group_records(group),
                                   policy);
  ASSERT_FALSE(regressions.empty());

  const ex::ExplainReport report = ex::explain_runs(
      trend::median_of_prior(group), trend::snapshot_newest(group), policy);
  ASSERT_NE(report.top_metric(), nullptr);
  // The contract explain_gate stands on: trend's worst flagged metric IS
  // the explainer's top-ranked metric, because both rank the identical
  // deltas by the identical rule.
  EXPECT_EQ(report.top_metric()->metric, regressions.front().metric);
  EXPECT_EQ(report.top_metric()->baseline, regressions.front().baseline);
  EXPECT_EQ(report.top_metric()->current, regressions.front().current);
  // And the full flagged set agrees, in order.
  std::vector<std::string> flagged;
  for (const auto& d : report.metrics.deltas) {
    if (d.violation) flagged.push_back(d.metric);
  }
  ASSERT_EQ(flagged.size(), regressions.size());
  for (std::size_t i = 0; i < flagged.size(); ++i) {
    EXPECT_EQ(flagged[i], regressions[i].metric) << "rank " << i;
  }
}

TEST(ExplainContract, PrintedHeadlineIsStableAndGreppable) {
  const auto group = fixture_group();
  const ex::ExplainReport report = ex::explain_runs(
      trend::median_of_prior(group), trend::snapshot_newest(group),
      obs::DiffPolicy{});
  std::ostringstream full;
  ex::print_explain(full, report);
  EXPECT_NE(full.str().find("explain: top cause: attrib source "
                            "\"kworker\""),
            std::string::npos);
  EXPECT_NE(full.str().find(
                "explain: top metric: attrib.src.kworker.stolen_us"),
            std::string::npos);
  EXPECT_NE(full.str().find("RECONCILED"), std::string::npos);
  std::ostringstream summary;
  ex::print_explain_summary(summary, report);
  EXPECT_NE(summary.str().find("explain: top cause: attrib source "
                               "\"kworker\""),
            std::string::npos);
}

TEST(ExplainContract, ReportMetricsAreSchemaValid) {
  const auto group = fixture_group();
  const ex::ExplainReport report = ex::explain_runs(
      trend::median_of_prior(group), trend::snapshot_newest(group),
      obs::DiffPolicy{});
  obs::BenchReport bench("explain", /*quick=*/true);
  ex::add_explain_metrics(bench, report);
  EXPECT_EQ(obs::validate_bench_report(bench.to_json()), "");
  double layer = -2.0;
  for (const auto& m : bench.metrics()) {
    if (m.name == "explain.top_cause.layer") layer = m.value;
  }
  EXPECT_EQ(layer, 1.0);  // 1 == attrib
}

// ----------------------------------------------------------- producers

TEST(ExplainProducers, SpanLabelMetricsSumSelfTimeWithoutDoubleCount) {
  // A root span (40 us) with one child (15 us): self times are 25 and
  // 15, so per-label totals must NOT add up to 55 + 15.
  std::vector<sim::TraceRecord> records;
  sim::TraceRecord root;
  root.time = SimTime::us(0);
  root.duration = SimTime::us(40);
  root.label = "bsp:compute";
  root.span = 1;
  records.push_back(root);
  sim::TraceRecord child;
  child.time = SimTime::us(5);
  child.duration = SimTime::us(15);
  child.label = "fault:minor";
  child.span = 2;
  child.parent = 1;
  records.push_back(child);
  sim::TraceRecord second_root = root;
  second_root.time = SimTime::us(100);
  second_root.span = 3;
  second_root.duration = SimTime::us(10);
  records.push_back(second_root);

  std::map<std::string, LogHistogram> sketches;
  LogHistogram& compute_us =
      sketches.try_emplace("bsp:compute", duration_us_histogram())
          .first->second;
  compute_us.add(25.0);
  compute_us.add(10.0);

  obs::BenchReport report("spans", /*quick=*/true);
  ex::add_span_label_metrics(report, records, &sketches);
  double compute = NAN;
  double fault = NAN;
  bool compute_has_pct = false;
  for (const auto& m : report.metrics()) {
    if (m.name == "span.bsp:compute.self_us") {
      compute = m.value;
      compute_has_pct = m.percentiles.count("p50") == 1 &&
                        m.percentiles.count("p99") == 1;
    }
    if (m.name == "span.fault:minor.self_us") fault = m.value;
  }
  EXPECT_EQ(compute, 35.0);  // (40 - 15) + 10, child not double counted
  EXPECT_EQ(fault, 15.0);
  EXPECT_TRUE(compute_has_pct);
}

}  // namespace
}  // namespace hpcos
