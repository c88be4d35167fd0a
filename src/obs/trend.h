// Cross-run trend analysis over a run ledger (obs/runlog).
//
// The ledger answers "what ran"; this module answers "how is it moving".
// Records group by (target, config hash) — within a group every run is
// the same experiment by the confighash contract, so any metric movement
// is a code change, a perf change, or host noise. Three analyses, all
// deterministic over a fixed ledger:
//
//   * regressions — the newest run vs the median of all prior runs
//     (snapshot_newest vs median_of_prior), judged by compare_metrics
//     under the SAME tolerance policy the bench_gate uses (obs/bench_diff
//     DiffPolicy: glob rules, rel/abs allowance; host.* never judged).
//     One policy file and one judgment govern per-commit gating,
//     cross-run trend flags and the explainer (obs/explain), which diffs
//     the same pair.
//   * drift — robust median/MAD changepoint per metric series: the split
//     maximizing |median(before) - median(after)| scaled by the series
//     MAD. Catches slow multi-run creep that per-pair tolerance checks
//     miss.
//   * sparklines — a compact ASCII ramp of each metric's history for the
//     trend table.
//
// This module also owns the run snapshots both trend and explain compare:
// a run (report or ledger record) reduced to its flat metrics, and the
// newest-run-vs-median-of-prior baseline.
//
// tools/trend is the CLI front-end; tests/test_trend.cpp pins the
// analyses, including the injected-regression fixture the trend_gate CI
// job replays.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"

namespace hpcos::obs::trend {

// One side of a cross-run comparison — a run (or a synthesized baseline)
// reduced to its identity and flat metrics.
struct RunSnapshot {
  std::string label;        // "newest run", "median of 4 prior runs", path
  std::string target;
  std::string config_hash;  // "" when unknown
  JsonValue config;         // null when the run carried no config document
  std::vector<FlatMetric> metrics;  // flatten_metric order, host.* included
};

// Build a snapshot from a schema-valid BenchReport document or from a
// run-ledger record (obs/runlog). Both throw std::runtime_error on
// malformed input. Ledger records contribute their host.metrics too.
RunSnapshot snapshot_from_report(const JsonValue& report_doc,
                                 std::string label = {});
RunSnapshot snapshot_from_record(const JsonValue& record,
                                 std::string label = {});

// Group selection over ledger records: keep records matching `target` and
// (when non-empty) a config-hash prefix. Returns "" and fills `out` on
// success; otherwise a one-line error (no match / ambiguous prefix).
std::string select_group(const std::vector<JsonValue>& records,
                         const std::string& target,
                         const std::string& hash_prefix,
                         std::vector<JsonValue>* out);

// The newest record of a group as a snapshot.
RunSnapshot snapshot_newest(const std::vector<JsonValue>& group);
// The baseline find_regressions judges against: per flattened metric, the
// median over all records but the newest. The config document comes from
// the newest prior record (same hash across the group by construction).
// Throws for groups of fewer than 2 records.
RunSnapshot median_of_prior(const std::vector<JsonValue>& group);

// The 8-character prefix the tools print for a config hash.
std::string short_hash(const std::string& config_hash);

// One metric's history within a group, in ledger append order. Runs that
// do not emit the metric contribute no entry (values are positional, not
// per-record-index).
struct MetricSeries {
  std::string name;
  std::string unit;
  std::vector<double> values;
};

struct RunGroup {
  std::string target;
  std::string config_hash;
  std::vector<JsonValue> records;       // ledger order
  std::vector<MetricSeries> metrics;    // first-seen order
};

// Group ledger records by (target, config_hash), groups in first-seen
// order — deterministic for a fixed ledger. Each record flattens through
// snapshot_from_record, so percentile entries read "<name>.<pN>" exactly
// as in bench_diff and tolerance globs match the same names in both tools.
std::vector<RunGroup> group_records(const std::vector<JsonValue>& records);

// Batch median (copies + sorts). Returns 0 for an empty set.
double median(std::vector<double> values);

// ASCII ramp sparkline of the series scaled to its own min..max, one
// glyph per value (the last `max_width` values when longer). Constant
// series render as a flat mid-ramp line.
std::string sparkline(const std::vector<double>& values,
                      std::size_t max_width = 48);

// A violation of the newest run against its group's median_of_prior
// baseline: baseline is that median, current the newest run's value.
struct Regression : MetricDelta {
  std::string target;
  std::string config_hash;
};

// For every group of >= 2 runs, compare_metrics(median_of_prior,
// snapshot_newest) and keep the violations; ranked across groups by
// ranks_before. A metric the newest run no longer emits is not judged.
std::vector<Regression> find_regressions(const std::vector<RunGroup>& groups,
                                         const DiffPolicy& policy);

struct Drift {
  std::string target;
  std::string config_hash;
  std::string metric;
  std::size_t split = 0;      // first index of the "after" segment
  double before_median = 0.0;
  double after_median = 0.0;
  double score = 0.0;         // |after - before| / MAD scale
};

// Robust changepoint scan per metric series with >= 2*min_segment values:
// report the best split when its score exceeds `min_score`. The MAD scale
// has a small relative floor so exactly-constant histories cannot divide
// by zero (any step on a constant series is a clean detection).
std::vector<Drift> find_drift(const std::vector<RunGroup>& groups,
                              double min_score = 6.0,
                              std::size_t min_segment = 3);

// OpenMetrics exposition of the grouped view: for every group metric,
//   hpcos_trend{target=...,config=...,metric=...,stat="last"|"median"} v
//   hpcos_trend_runs{target=...,config=...} n
// terminated by "# EOF". tests/test_trend.cpp parses it back.
std::string trend_openmetrics_text(const std::vector<RunGroup>& groups);

}  // namespace hpcos::obs::trend
