// Regression root-cause explainer: hierarchical diffing of two runs.
//
// The observability stack can *detect* a cross-run regression
// (tools/trend flags it, tools/bench_diff gates it) but until now could
// not *explain* one — the operator had to hand-correlate the run ledger,
// the attribution ledger, span self-times, and config hashes. This module
// is the missing layer: take any pair of runs and reduce "metric X
// regressed 7%" to "knob K changed / noise source S gained N us / span
// label L's tail moved", with the deltas reconciled against the totals.
// It mirrors the paper's own differential method (every figure is "the
// same workload under two system configurations, explained by which
// OS-level source ate the delta").
//
// Four layers, each over data the producers already record:
//
//   1. config     — knob-by-knob diff of the canonical config documents
//                   (common/confighash config_diff). hash equal => empty
//                   diff; a semantic knob change is definitionally the
//                   root cause and outranks everything else.
//   2. metrics    — delta of every flattened metric (percentiles flatten
//                   to "<name>.<pN>" exactly as bench_diff/trend do),
//                   ranked out-of-tolerance-first then by relative delta
//                   under the SAME DiffPolicy the gates use, and rolled
//                   up into a <subsystem>.<object> contribution tree.
//                   host.* metrics are quarantined into an advisory
//                   section — tracked, never judged, never a cause (the
//                   bench_gate/trend policy).
//   3. attribution — per-source overhead deltas over the obs/attrib
//                   ledger metrics (attrib.src.<source>.stolen_us), with
//                   the per-source deltas reconciled against the total
//                   delta to < 1e-9 on deterministic metrics. A noise
//                   regression names its source.
//   4. spans      — self-time deltas per span label
//                   (span.<label>.self_us, SpanForest aggregates) plus
//                   p50/p99 movement from the per-label QuantileSketch
//                   percentiles.
//
// The layers fold into one ranked cause list; causes[0] is the headline.
// tools/explain is the CLI; tools/trend auto-emits the compact form when
// a regression flag fires, so the flag and its explanation arrive on one
// screen. tests/test_explain.cpp pins the ranking, the reconciliation
// invariant, and trend-flag/top-metric agreement.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/confighash.h"
#include "common/json.h"
#include "common/sketch.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"

namespace hpcos::sim {
struct TraceRecord;
}  // namespace hpcos::sim

namespace hpcos::obs::explain {

// One side of the diff — a run (or a synthesized baseline) reduced to the
// fields the explainer needs.
struct RunSnapshot {
  std::string label;        // "newest run", "median of 4 prior runs", path
  std::string target;
  std::string config_hash;  // "" when unknown
  JsonValue config;         // null when the run carried no config document
  std::vector<FlatMetric> metrics;  // flatten_metric order, host.* included
};

// Build a snapshot from a schema-valid BenchReport document or from a
// run-ledger record (obs/runlog). Both throw std::runtime_error on
// malformed input. Ledger records contribute their host.metrics too (into
// the advisory section downstream).
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
// The median-of-prior baseline tools/trend already judges against: per
// flattened metric, the median over all records but the newest. The
// config document comes from the newest prior record (same hash across
// the group by construction).
RunSnapshot median_of_prior(const std::vector<JsonValue>& group);

// ---------------------------------------------------------------- layers

struct MetricDelta {
  std::string name;
  std::string unit;
  double base = 0.0;
  double current = 0.0;
  double abs_delta = 0.0;
  double rel_delta = 0.0;  // |delta| / max(|base|, DBL_MIN)
  MetricTolerance tolerance;
  bool out_of_tolerance = false;
};

// Roll-up node over the <subsystem>.<object>[.<detail>] naming rule:
// depth 1 groups by subsystem, depth 2 by object. abs_sum mixes units, so
// it ranks contributions rather than measuring one quantity.
struct MetricTreeNode {
  std::string path;
  double abs_sum = 0.0;       // sum of |delta| over leaves below
  double max_rel = 0.0;       // worst relative delta below
  std::size_t leaves = 0;     // metrics compared below
  std::size_t changed = 0;    // leaves with a nonzero delta
  std::size_t flagged = 0;    // leaves out of tolerance
  std::vector<MetricTreeNode> children;
};

struct MetricLayer {
  // Deterministic metrics present on both sides, ignored patterns
  // excluded, ranked out-of-tolerance-first then by relative delta —
  // the identical order trend ranks its flags, so ranked[0] IS the
  // trend-flagged metric when one exists.
  std::vector<MetricDelta> ranked;
  std::vector<MetricTreeNode> tree;  // subsystems sorted by abs_sum desc
  // host.* quarantine: tracked for the report, never judged, never a
  // cause (same policy as bench_gate/trend).
  std::vector<MetricDelta> host_advisory;
  std::vector<std::string> only_in_base;     // dropped metrics
  std::vector<std::string> only_in_current;  // new metrics
};

struct AttribSourceDelta {
  std::string source;
  double base_us = 0.0;
  double current_us = 0.0;
  double delta_us = 0.0;
  double rel_delta = 0.0;  // |delta| / max(|base|, DBL_MIN)
  double share = 0.0;      // |delta| / sum of |per-source deltas|
};

struct AttribLayer {
  bool present = false;  // attrib.total_stolen_us seen on either side
  std::vector<AttribSourceDelta> rows;  // ranked by |delta_us| desc
  double base_total_us = 0.0;
  double current_total_us = 0.0;
  double total_delta_us = 0.0;       // current - base
  double source_delta_sum_us = 0.0;  // signed sum of per-source deltas
  // |source_delta_sum - total_delta| / max(|either|); 0 when both are 0.
  // On deterministic metrics this must close to < 1e-9 (kReconcileTol):
  // per-source sums and the campaign total are two views of one number.
  double reconciliation_error = 0.0;
  bool reconciled = false;
};

inline constexpr double kReconcileTol = 1e-9;

struct SpanLabelDelta {
  std::string label;
  double base_self_us = 0.0;
  double current_self_us = 0.0;
  double delta_us = 0.0;
  double rel_delta = 0.0;
  // Quantile movement from the per-label sketch percentiles, when both
  // sides carried them.
  bool has_quantiles = false;
  double p50_base = 0.0, p50_current = 0.0;
  double p99_base = 0.0, p99_current = 0.0;
};

struct SpanLayer {
  bool present = false;  // any span.<label>.self_us metric seen
  std::vector<SpanLabelDelta> rows;  // ranked by |delta_us| desc
};

// ---------------------------------------------------------------- causes

enum class CauseLayer : std::uint8_t { kConfig, kAttrib, kSpan, kMetric };

const char* to_string(CauseLayer layer);

struct Cause {
  CauseLayer layer = CauseLayer::kMetric;
  std::string name;    // knob path / source name / span label / metric
  std::string metric;  // backing metric name ("" for config causes)
  std::string detail;  // one-line human description
  // Relative movement; config causes carry HUGE_VAL (a semantic knob
  // change outranks any measured delta by definition).
  double score = 0.0;
};

struct ExplainReport {
  RunSnapshot base;
  RunSnapshot current;
  bool config_known = false;  // both sides carried a config document
  bool hash_equal = false;
  std::vector<ConfigDelta> config_diff;
  MetricLayer metrics;
  AttribLayer attrib;
  SpanLayer spans;
  // Ranked worst-first: config knob changes, then attrib/span/metric
  // causes by relative movement. Metric causes skip attrib.* / span.*
  // names (those already surface through their own layers).
  std::vector<Cause> causes;

  const Cause* top_cause() const {
    return causes.empty() ? nullptr : &causes.front();
  }
  // The trend-comparable headline: ranked[0] of the metric layer.
  const MetricDelta* top_metric() const {
    return metrics.ranked.empty() ? nullptr : &metrics.ranked.front();
  }
};

// Diff `current` against `base` under `policy` (the same tolerance file
// the gates use; metrics matching ignore rules are excluded from ranking
// and causes).
ExplainReport explain_runs(RunSnapshot base, RunSnapshot current,
                           const DiffPolicy& policy);

// Full report: one banner per layer, `top` rows per table.
void print_explain(std::ostream& os, const ExplainReport& report,
                   std::size_t top = 8);
// Compact one-screen form for trend's auto-emit: the top cause line plus
// up to `top` runner-up causes.
void print_explain_summary(std::ostream& os, const ExplainReport& report,
                           std::size_t top = 3);
// Machine-readable surface for --json: layer counts, the attribution
// reconciliation, per-source/per-label deltas, and the top cause score.
void add_explain_metrics(BenchReport& report, const ExplainReport& ex);

// ------------------------------------------------------------- producers

// Emit span-label aggregates in the explainer's naming convention:
//   span.<label>.self_us          summed SpanForest self time per label
//   (percentiles p50/p99)         from the per-label sketch when present
// so any target with a span trace becomes explainable. Labels come from
// spanned records only; sketches are keyed by root label (obs/live
// NodeSample::sketches is the usual source).
void add_span_label_metrics(
    BenchReport& report, const std::vector<sim::TraceRecord>& records,
    const std::map<std::string, QuantileSketch>* label_sketches = nullptr);

}  // namespace hpcos::obs::explain
