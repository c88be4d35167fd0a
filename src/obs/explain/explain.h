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
//   2. metrics    — compare_metrics (obs/bench_diff), the one judgment
//                   bench_diff and trend use, under the same DiffPolicy;
//                   deltas ranked by ranks_before and rolled up into a
//                   <subsystem>.<object> contribution tree. host.* pairs
//                   form an advisory section — tracked, never judged,
//                   never a cause.
//   3. attribution — per-source overhead deltas over the obs/attrib
//                   ledger metrics (attrib.src.<source>.stolen_us), with
//                   the per-source deltas reconciled against the total
//                   delta to < 1e-9 on deterministic metrics. A noise
//                   regression names its source.
//   4. spans      — self-time deltas per span label
//                   (span.<label>.self_us, SpanForest aggregates) plus
//                   p50/p99 movement from the per-label LogHistogram
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
#include "common/histogram.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/trend.h"

namespace hpcos::sim {
struct TraceRecord;
}  // namespace hpcos::sim

namespace hpcos::obs::explain {

// ---------------------------------------------------------------- layers

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
  // Quantile movement from the per-label histogram percentiles, when both
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
  trend::RunSnapshot base;
  trend::RunSnapshot current;
  bool config_known = false;  // both sides carried a config document
  bool hash_equal = false;
  std::vector<ConfigDelta> config_diff;
  // The compare_metrics result with its deltas ranked by ranks_before —
  // the order trend ranks its flags, so metrics.deltas[0] IS the
  // trend-flagged metric when one exists. metrics.host is the advisory
  // section, ranked the same way.
  MetricComparison metrics;
  std::vector<MetricTreeNode> metric_tree;  // subsystems, abs_sum desc
  AttribLayer attrib;
  SpanLayer spans;
  // Ranked worst-first: config knob changes, then attrib/span/metric
  // causes by relative movement. Metric causes skip attrib.* / span.*
  // names (those already surface through their own layers).
  std::vector<Cause> causes;

  const Cause* top_cause() const {
    return causes.empty() ? nullptr : &causes.front();
  }
  // The trend-comparable headline: the metric layer's top delta.
  const MetricDelta* top_metric() const {
    return metrics.deltas.empty() ? nullptr : &metrics.deltas.front();
  }
};

// Diff `current` against `base` under `policy` (the same tolerance file
// the gates use; host.* metrics are never judged).
ExplainReport explain_runs(trend::RunSnapshot base,
                           trend::RunSnapshot current,
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
//   (percentiles p50/p99)         from the per-label histogram when present
// so any target with a span trace becomes explainable. Labels come from
// spanned records only; histograms are keyed by root label (obs/live
// NodeSample::sketches is the usual source).
void add_span_label_metrics(
    BenchReport& report, const std::vector<sim::TraceRecord>& records,
    const std::map<std::string, LogHistogram>* label_sketches = nullptr);

}  // namespace hpcos::obs::explain
