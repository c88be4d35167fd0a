// Baseline comparison for BenchReport documents (the bench_gate).
//
// bench_smoke proves every bench still emits schema-valid JSON; this module
// is the second half of the perf-regression discipline: diff the freshly
// emitted `hpcos-bench-report/1` document against a committed baseline with
// per-metric tolerances, so a metric drifting past its allowance fails CI
// with a ranked table of violations instead of rotting silently.
//
// Tolerances come from a small JSON policy document:
//
//   {
//     "schema": "hpcos-bench-tolerances/1",
//     "default": { "rel": 0.05, "abs": 1e-9 },
//     "metrics": [
//       { "pattern": "*.reconciliation_error", "rel": 0.0 },
//       { "pattern": "*.p99_ms", "rel": 0.10 }
//     ]
//   }
//
// Patterns are glob-style with '*' wildcards; the first matching rule wins,
// falling back to "default". Any other key is a hard error. There is no
// way to exempt a metric here: host-dependent measurements are named
// host.*, and compare_metrics never judges those.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "obs/bench_report.h"

namespace hpcos::obs {

inline constexpr const char* kBenchTolerancesSchema =
    "hpcos-bench-tolerances/1";

struct MetricTolerance {
  // Allowed drift: a comparison passes when
  //   |current - baseline| <= max(abs, rel * |baseline|).
  double rel = 0.05;
  double abs = 1e-9;
};

struct ToleranceRule {
  std::string pattern;  // glob over the metric name ('*' wildcards)
  MetricTolerance tolerance;
};

struct DiffPolicy {
  MetricTolerance fallback;
  std::vector<ToleranceRule> rules;  // first match wins

  const MetricTolerance& lookup(const std::string& metric) const;
};

// '*'-wildcard glob match over the full string (no character classes).
bool glob_match(const std::string& pattern, const std::string& text);

// Parse a tolerance policy document; throws std::runtime_error on a wrong
// schema string or malformed entries.
DiffPolicy parse_tolerance_policy(const JsonValue& doc);

// Read + parse a whole JSON document from a file; throws std::runtime_error
// (with the path) on open/parse failure. Shared by the bench_diff and
// trend CLIs so every tool reports file problems identically.
JsonValue load_json_file(const std::string& path);

// load_json_file + parse_tolerance_policy: the one call sites use to go
// from a --tolerances path to a DiffPolicy.
DiffPolicy load_tolerance_policy(const std::string& path);

struct MetricDelta {
  std::string metric;  // metric name, or "<name>.p50" for a percentile
  std::string unit;
  double baseline = 0.0;
  double current = 0.0;
  double abs_delta = 0.0;
  double rel_delta = 0.0;  // abs_delta / max(|baseline|, DBL_MIN)
  MetricTolerance tolerance;
  bool violation = false;
};

// The one cross-run judgment: bench_diff (report vs committed baseline),
// trend (newest run vs median of prior) and explain (any pair) all decide
// through compare_metrics, so they agree by construction.
struct MetricComparison {
  // Judged: non-host.* metrics both sides carry, in `current` order.
  std::vector<MetricDelta> deltas;
  // host.* pairs: tracked, never judged (no tolerance, never a violation)
  // — wall-clock rates move with the machine, not the code.
  std::vector<MetricDelta> host;
  // Judged metrics only the baseline carries (a dropped metric).
  std::vector<std::string> missing_in_current;
  // Judged metrics only the current side carries.
  std::vector<std::string> new_in_current;
};

MetricComparison compare_metrics(const std::vector<FlatMetric>& baseline,
                                 const std::vector<FlatMetric>& current,
                                 const DiffPolicy& policy);

// The one ranking of deltas: violations first, then relative delta
// descending, then name.
bool ranks_before(const MetricDelta& a, const MetricDelta& b);

struct DiffResult : MetricComparison {
  // Out-of-tolerance deltas, ranked worst-first (ranks_before). A missing
  // metric is a failure too (a silently dropped metric is a broken gate);
  // a new one is reported, not failed (refresh the baseline to track it).
  std::vector<MetricDelta> violations;

  bool ok() const { return violations.empty() && missing_in_current.empty(); }
};

// Compare two schema-valid bench reports under `policy`. Throws
// std::runtime_error when either document fails validate_bench_report or
// the two documents describe different benches.
DiffResult diff_reports(const JsonValue& current, const JsonValue& baseline,
                        const DiffPolicy& policy);

// Machine-readable gate result (the bench_diff --json surface): fold a
// DiffResult into a BenchReport named "bench_diff" so CI and the explain
// tooling consume gate outcomes through the one schema they already
// parse, instead of scraping the violation table. Emits gate.ok,
// compared/violation/missing/new counts, the worst relative delta, and
// one gate.violation.<metric>.rel entry per out-of-tolerance metric.
BenchReport diff_result_report(const DiffResult& result,
                               const std::string& bench_name, bool quick);

}  // namespace hpcos::obs
