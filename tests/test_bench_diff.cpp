// bench_diff library: glob matching, tolerance-policy parsing, and report
// diffing — the logic behind the ctest bench_gate jobs.
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "test_support.h"

namespace hpcos::obs {
namespace {

JsonValue report_with(
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::string& bench = "gate_bench") {
  BenchReport r(bench, /*quick=*/true, /*seed=*/42);
  for (const auto& [name, value] : metrics) r.add_metric(name, "us", value);
  return r.to_json();
}

// ----------------------------------------------------------------- glob

TEST(GlobMatch, LiteralAndWildcardPatterns) {
  EXPECT_TRUE(glob_match("a.b", "a.b"));
  EXPECT_FALSE(glob_match("a.b", "a.c"));
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));

  EXPECT_TRUE(glob_match("shard_sweep.*.wall_s", "shard_sweep.64.wall_s"));
  EXPECT_FALSE(glob_match("shard_sweep.*.wall_s",
                          "shard_sweep.64.noise_rate"));
  EXPECT_TRUE(glob_match("*.p99_ms", "ofp_linux.p99_ms"));
  EXPECT_TRUE(glob_match("a*c*e", "abcde"));
  EXPECT_FALSE(glob_match("a*c*e", "abde"));

  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
}

// --------------------------------------------------------------- policy

TEST(TolerancePolicy, RulesRefineTheDefault) {
  const auto doc = JsonValue::parse(R"({
    "schema": "hpcos-bench-tolerances/1",
    "default": {"rel": 0.02, "abs": 1e-6},
    "metrics": [
      {"pattern": "*.p99_ms", "rel": 0.10}
    ]
  })");
  const DiffPolicy policy = parse_tolerance_policy(doc);
  // The rule only sets rel; abs is inherited from the file's default.
  EXPECT_DOUBLE_EQ(policy.lookup("x.p99_ms").rel, 0.10);
  EXPECT_DOUBLE_EQ(policy.lookup("x.p99_ms").abs, 1e-6);
  // Unmatched metrics fall back to the default.
  EXPECT_DOUBLE_EQ(policy.lookup("other.metric").rel, 0.02);
}

TEST(TolerancePolicy, FirstMatchingRuleWins) {
  const auto doc = JsonValue::parse(R"({
    "schema": "hpcos-bench-tolerances/1",
    "metrics": [
      {"pattern": "a.*", "rel": 0.5},
      {"pattern": "a.b", "rel": 0.9}
    ]
  })");
  const DiffPolicy policy = parse_tolerance_policy(doc);
  EXPECT_DOUBLE_EQ(policy.lookup("a.b").rel, 0.5);
}

TEST(TolerancePolicy, RejectsWrongSchemaAndNegativeTolerances) {
  EXPECT_THROW(
      parse_tolerance_policy(JsonValue::parse(R"({"schema": "nope/1"})")),
      std::runtime_error);
  EXPECT_THROW(parse_tolerance_policy(JsonValue::parse(R"({
        "schema": "hpcos-bench-tolerances/1",
        "default": {"rel": -0.1}
      })")),
               std::runtime_error);
}

// A typoed key in a tolerance file would silently disable the rule it was
// meant to configure — the parser must reject unknown keys outright, with
// the likeliest typos reported first.

std::string policy_error(const char* json) {
  try {
    parse_tolerance_policy(JsonValue::parse(json));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TolerancePolicy, UnknownKeysAreHardErrorsWithSuggestions) {
  const std::string err = policy_error(R"({
    "schema": "hpcos-bench-tolerances/1",
    "metrics": [
      {"patern": "a.*", "rel": 0.5}
    ]
  })");
  ASSERT_NE(err, "");
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_NE(err.find("metrics[0].patern"), std::string::npos);
  EXPECT_NE(err.find("did you mean \"pattern\"?"), std::string::npos);

  const std::string def_err = policy_error(R"({
    "schema": "hpcos-bench-tolerances/1",
    "default": {"abss": 1e-9}
  })");
  EXPECT_NE(def_err.find("default.abss"), std::string::npos);
  EXPECT_NE(def_err.find("did you mean \"abs\"?"), std::string::npos);

  // "ignore" is not a key: a host-dependent metric is named host.*, which
  // compare_metrics never judges, so no rule can exempt a metric.
  const std::string ignore_err = policy_error(R"({
    "schema": "hpcos-bench-tolerances/1",
    "metrics": [
      {"pattern": "parallel.speedup", "ignore": true}
    ]
  })");
  EXPECT_NE(ignore_err.find("unknown key"), std::string::npos);
  EXPECT_NE(ignore_err.find("metrics[0].ignore"), std::string::npos);

  // A key nothing like any allowed key gets no (misleading) suggestion.
  const std::string far_err = policy_error(R"({
    "schema": "hpcos-bench-tolerances/1",
    "widgets": []
  })");
  EXPECT_NE(far_err.find("widgets"), std::string::npos);
  EXPECT_EQ(far_err.find("did you mean"), std::string::npos);
}

TEST(TolerancePolicy, UnknownKeysRankedByEditDistance) {
  // "rell" (distance 1 to "rel") must be reported before "bogus_key"
  // (distance > 3), regardless of document order.
  const std::string err = policy_error(R"({
    "schema": "hpcos-bench-tolerances/1",
    "metrics": [
      {"pattern": "a.*", "bogus_key": 1},
      {"pattern": "b.*", "rell": 0.5}
    ]
  })");
  ASSERT_NE(err, "");
  const auto near_pos = err.find("metrics[1].rell");
  const auto far_pos = err.find("metrics[0].bogus_key");
  ASSERT_NE(near_pos, std::string::npos);
  ASSERT_NE(far_pos, std::string::npos);
  EXPECT_LT(near_pos, far_pos);
}

TEST(TolerancePolicy, TypoedPatternReportsAsUnknownKeyNotMissingKey) {
  // Key validation runs before rule parsing, so the error explains the
  // typo instead of complaining that "pattern" is missing.
  const std::string err = policy_error(R"({
    "schema": "hpcos-bench-tolerances/1",
    "metrics": [{"patern": "a.*"}]
  })");
  EXPECT_NE(err.find("metrics[0].patern"), std::string::npos);
  EXPECT_EQ(err.find("missing"), std::string::npos);
}

TEST(TolerancePolicy, CommittedGateToleranceFileShapeStillParses) {
  // The shape of bench/baselines/tolerances.json must stay valid under
  // the strict-key check.
  const DiffPolicy policy = parse_tolerance_policy(JsonValue::parse(R"({
    "schema": "hpcos-bench-tolerances/1",
    "default": {"rel": 0.02, "abs": 1e-9},
    "metrics": [
      {"pattern": "*.reconciliation_error", "rel": 0.0, "abs": 1e-9},
      {"pattern": "explain.top_cause.layer", "rel": 0.0, "abs": 0.0}
    ]
  })"));
  EXPECT_DOUBLE_EQ(policy.lookup("explain.reconciliation_error").rel, 0.0);
  EXPECT_DOUBLE_EQ(policy.lookup("explain.top_cause.layer").abs, 0.0);
  EXPECT_DOUBLE_EQ(policy.lookup("attrib.total_stolen_us").rel, 0.02);
}

// ----------------------------------------------------------------- diff

TEST(BenchDiff, PassesWithinTolerance) {
  const auto baseline = report_with({{"alpha", 100.0}, {"beta", 1.0}});
  const auto current = report_with({{"alpha", 104.0}, {"beta", 1.0}});
  const auto result = diff_reports(current, baseline, DiffPolicy{});
  EXPECT_TRUE(result.ok());  // 4% < default 5%
  EXPECT_EQ(result.deltas.size(), 2u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(BenchDiff, ViolationsRankedWorstFirst) {
  const auto baseline = report_with({{"alpha", 100.0}, {"beta", 10.0}});
  const auto current = report_with({{"alpha", 110.0}, {"beta", 20.0}});
  const auto result = diff_reports(current, baseline, DiffPolicy{});
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.violations.size(), 2u);
  EXPECT_EQ(result.violations[0].metric, "beta");  // 100% > 10%
  EXPECT_EQ(result.violations[1].metric, "alpha");
  EXPECT_DOUBLE_EQ(result.violations[0].rel_delta, 1.0);
}

TEST(BenchDiff, HostMetricsAreNeverJudged) {
  // host.* is tracked, never gated — with no tolerance file at all, a 50x
  // wall-clock move passes, and a host metric on one side only is neither
  // missing nor new.
  const auto baseline = report_with(
      {{"host.wall_s", 1.0}, {"host.gone_s", 1.0}, {"alpha", 5.0}});
  const auto current = report_with(
      {{"host.wall_s", 50.0}, {"host.fresh_s", 1.0}, {"alpha", 5.0}});
  const auto result = diff_reports(current, baseline, DiffPolicy{});
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].metric, "alpha");
  EXPECT_TRUE(result.violations.empty());
  EXPECT_TRUE(result.missing_in_current.empty());
  EXPECT_TRUE(result.new_in_current.empty());
  // The pair is still tracked, unjudged.
  ASSERT_EQ(result.host.size(), 1u);
  EXPECT_EQ(result.host[0].metric, "host.wall_s");
  EXPECT_FALSE(result.host[0].violation);
}

TEST(BenchDiff, MissingMetricFailsNewMetricNotes) {
  const auto baseline = report_with({{"alpha", 1.0}, {"gone", 2.0}});
  const auto current = report_with({{"alpha", 1.0}, {"fresh", 3.0}});
  const auto result = diff_reports(current, baseline, DiffPolicy{});
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.missing_in_current.size(), 1u);
  EXPECT_EQ(result.missing_in_current[0], "gone");
  ASSERT_EQ(result.new_in_current.size(), 1u);
  EXPECT_EQ(result.new_in_current[0], "fresh");
}

TEST(BenchDiff, PercentilesCompareAsFlattenedMetrics) {
  auto make = [](double p99) {
    BenchReport r("gate_bench", true, 42);
    r.add_metric(BenchMetric{.name = "lat",
                             .unit = "us",
                             .value = 5.0,
                             .percentiles = {{"p50", 1.0}, {"p99", p99}}});
    return r.to_json();
  };
  const auto result =
      diff_reports(make(/*p99=*/20.0), make(/*p99=*/10.0), DiffPolicy{});
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].metric, "lat.p99");
}

TEST(BenchDiff, InjectedRegressionTripsTheGateTolerances) {
  // The committed bench_gate's default: 2% rel. A 5% regression on a
  // deterministic metric fails; an arbitrarily large change in a host.*
  // measurement does not.
  const auto policy = parse_tolerance_policy(JsonValue::parse(R"({
    "schema": "hpcos-bench-tolerances/1",
    "default": {"rel": 0.02, "abs": 1e-9}
  })"));
  const auto baseline = report_with({{"ofp_linux.p99_ms", 6.5},
                                     {"host.parallel.steals.count", 3.0},
                                     {"host.wall_s", 0.01}});
  const auto regressed = report_with({{"ofp_linux.p99_ms", 6.5 * 1.05},
                                      {"host.parallel.steals.count", 30.0},
                                      {"host.wall_s", 10.0}});
  const auto result = diff_reports(regressed, baseline, policy);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].metric, "ofp_linux.p99_ms");

  const auto clean = diff_reports(baseline, baseline, policy);
  EXPECT_TRUE(clean.ok());
}

TEST(BenchDiff, RejectsInvalidOrMismatchedReports) {
  const auto a = report_with({{"alpha", 1.0}}, "bench_a");
  const auto b = report_with({{"alpha", 1.0}}, "bench_b");
  EXPECT_THROW(diff_reports(a, b, DiffPolicy{}), std::runtime_error);
  EXPECT_THROW(diff_reports(JsonValue::parse("{}"), a, DiffPolicy{}),
               std::runtime_error);
}

}  // namespace
}  // namespace hpcos::obs
