#include "obs/explain/explain.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/table.h"
#include "sim/span_tree.h"
#include "sim/trace.h"

namespace hpcos::obs::explain {

namespace {

using trend::RunSnapshot;
using trend::short_hash;

constexpr const char* kAttribTotalMetric = "attrib.total_stolen_us";
constexpr const char* kAttribSrcPrefix = "attrib.src.";
constexpr const char* kSpanPrefix = "span.";
constexpr const char* kStolenSuffix = ".stolen_us";
constexpr const char* kSelfSuffix = ".self_us";

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// "attrib.src.<source>.stolen_us" -> "<source>" (dots allowed inside).
bool middle_of(const std::string& name, const std::string& prefix,
               const std::string& suffix, std::string* out) {
  if (!starts_with(name, prefix) || !ends_with(name, suffix)) return false;
  const std::size_t len = name.size() - prefix.size() - suffix.size();
  if (len == 0) return false;
  *out = name.substr(prefix.size(), len);
  return true;
}

const FlatMetric* find_metric(const RunSnapshot& snap,
                              const std::string& name) {
  for (const FlatMetric& m : snap.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double rel_of(double base, double abs_delta) {
  return abs_delta / std::max(std::abs(base), DBL_MIN);
}

std::string fmt_signed(double v) {
  std::string s = TextTable::fmt_sci(std::abs(v), 3);
  return (v < 0 ? "-" : "+") + s;
}

std::string fmt_signed_pct(double base, double delta) {
  const double rel = rel_of(base, std::abs(delta));
  return (delta < 0 ? "-" : "+") + TextTable::fmt_percent(rel, 1);
}

MetricTreeNode* find_or_add_child(std::vector<MetricTreeNode>& nodes,
                                  const std::string& path) {
  for (MetricTreeNode& n : nodes) {
    if (n.path == path) return &n;
  }
  nodes.push_back(MetricTreeNode{path, 0, 0, 0, 0, 0, {}});
  return &nodes.back();
}

void fold_into_node(MetricTreeNode& node, const MetricDelta& d) {
  node.abs_sum += d.abs_delta;
  node.max_rel = std::max(node.max_rel, d.rel_delta);
  ++node.leaves;
  if (d.abs_delta > 0.0) ++node.changed;
  if (d.violation) ++node.flagged;
}

void sort_tree(std::vector<MetricTreeNode>& nodes) {
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const MetricTreeNode& a, const MetricTreeNode& b) {
                     return a.abs_sum > b.abs_sum;
                   });
  for (MetricTreeNode& n : nodes) sort_tree(n.children);
}

std::string cause_line(const Cause& c) {
  std::ostringstream os;
  os << to_string(c.layer) << " " << (c.layer == CauseLayer::kConfig
                                          ? "knob "
                                          : std::string("\""))
     << c.name << (c.layer == CauseLayer::kConfig ? "" : "\"") << " — "
     << c.detail;
  return os.str();
}

}  // namespace

const char* to_string(CauseLayer layer) {
  switch (layer) {
    case CauseLayer::kConfig: return "config";
    case CauseLayer::kAttrib: return "attrib source";
    case CauseLayer::kSpan: return "span label";
    case CauseLayer::kMetric: return "metric";
  }
  return "unknown";
}

ExplainReport explain_runs(RunSnapshot base, RunSnapshot current,
                           const DiffPolicy& policy) {
  ExplainReport ex;
  ex.base = std::move(base);
  ex.current = std::move(current);

  // ---- layer 1: config ---------------------------------------------------
  ex.config_known =
      !ex.base.config.is_null() && !ex.current.config.is_null();
  if (ex.config_known) {
    const std::string base_hash = ex.base.config_hash.empty()
                                      ? config_hash_hex(ex.base.config)
                                      : ex.base.config_hash;
    const std::string cur_hash = ex.current.config_hash.empty()
                                     ? config_hash_hex(ex.current.config)
                                     : ex.current.config_hash;
    ex.hash_equal = base_hash == cur_hash;
    ex.config_diff = config_diff(ex.base.config, ex.current.config);
  } else if (!ex.base.config_hash.empty() &&
             !ex.current.config_hash.empty()) {
    ex.hash_equal = ex.base.config_hash == ex.current.config_hash;
  }

  // ---- layer 2: metrics --------------------------------------------------
  ex.metrics = compare_metrics(ex.base.metrics, ex.current.metrics, policy);
  // Contribution roll-up along the <subsystem>.<object>[.<detail>] naming
  // rule before ranking reorders the leaves.
  for (const MetricDelta& d : ex.metrics.deltas) {
    const std::size_t dot1 = d.metric.find('.');
    const std::string subsystem =
        dot1 == std::string::npos ? d.metric : d.metric.substr(0, dot1);
    MetricTreeNode* top = find_or_add_child(ex.metric_tree, subsystem);
    fold_into_node(*top, d);
    if (dot1 != std::string::npos) {
      const std::size_t dot2 = d.metric.find('.', dot1 + 1);
      const std::string object =
          dot2 == std::string::npos ? d.metric
                                    : d.metric.substr(0, dot2);
      fold_into_node(*find_or_add_child(top->children, object), d);
    }
  }
  sort_tree(ex.metric_tree);
  std::stable_sort(ex.metrics.deltas.begin(), ex.metrics.deltas.end(),
                   ranks_before);
  std::stable_sort(ex.metrics.host.begin(), ex.metrics.host.end(),
                   ranks_before);

  // ---- layer 3: attribution ---------------------------------------------
  const FlatMetric* base_total = find_metric(ex.base, kAttribTotalMetric);
  const FlatMetric* cur_total = find_metric(ex.current, kAttribTotalMetric);
  ex.attrib.present = base_total != nullptr || cur_total != nullptr;
  if (ex.attrib.present) {
    ex.attrib.base_total_us = base_total != nullptr ? base_total->value : 0;
    ex.attrib.current_total_us = cur_total != nullptr ? cur_total->value : 0;
    ex.attrib.total_delta_us =
        ex.attrib.current_total_us - ex.attrib.base_total_us;
    std::vector<std::string> sources;
    auto collect = [&sources](const RunSnapshot& snap) {
      for (const FlatMetric& m : snap.metrics) {
        std::string source;
        if (middle_of(m.name, kAttribSrcPrefix, kStolenSuffix, &source) &&
            std::find(sources.begin(), sources.end(), source) ==
                sources.end()) {
          sources.push_back(source);
        }
      }
    };
    collect(ex.base);
    collect(ex.current);
    double abs_sum = 0.0;
    for (const std::string& source : sources) {
      const std::string name = kAttribSrcPrefix + source + kStolenSuffix;
      const FlatMetric* b = find_metric(ex.base, name);
      const FlatMetric* c = find_metric(ex.current, name);
      AttribSourceDelta row;
      row.source = source;
      row.base_us = b != nullptr ? b->value : 0.0;
      row.current_us = c != nullptr ? c->value : 0.0;
      row.delta_us = row.current_us - row.base_us;
      row.rel_delta = rel_of(row.base_us, std::abs(row.delta_us));
      ex.attrib.source_delta_sum_us += row.delta_us;
      abs_sum += std::abs(row.delta_us);
      ex.attrib.rows.push_back(std::move(row));
    }
    for (AttribSourceDelta& row : ex.attrib.rows) {
      row.share = abs_sum > 0.0 ? std::abs(row.delta_us) / abs_sum : 0.0;
    }
    std::stable_sort(ex.attrib.rows.begin(), ex.attrib.rows.end(),
                     [](const AttribSourceDelta& a,
                        const AttribSourceDelta& b) {
                       if (std::abs(a.delta_us) != std::abs(b.delta_us)) {
                         return std::abs(a.delta_us) > std::abs(b.delta_us);
                       }
                       return a.source < b.source;
                     });
    const double denom = std::max(std::abs(ex.attrib.source_delta_sum_us),
                                  std::abs(ex.attrib.total_delta_us));
    ex.attrib.reconciliation_error =
        denom > 0.0 ? std::abs(ex.attrib.source_delta_sum_us -
                               ex.attrib.total_delta_us) /
                          denom
                    : 0.0;
    ex.attrib.reconciled = ex.attrib.reconciliation_error < kReconcileTol;
  }

  // ---- layer 4: spans ----------------------------------------------------
  {
    std::vector<std::string> labels;
    auto collect = [&labels](const RunSnapshot& snap) {
      for (const FlatMetric& m : snap.metrics) {
        std::string label;
        if (middle_of(m.name, kSpanPrefix, kSelfSuffix, &label) &&
            // Skip the flattened percentile leaves
            // ("span.<label>.self_us.p50" also ends in neither suffix, so
            // only plain self_us names land here) and any label that
            // still contains ".self_us" from nested flattening.
            std::find(labels.begin(), labels.end(), label) == labels.end()) {
          labels.push_back(label);
        }
      }
    };
    collect(ex.base);
    collect(ex.current);
    ex.spans.present = !labels.empty();
    for (const std::string& label : labels) {
      const std::string name = kSpanPrefix + label + kSelfSuffix;
      const FlatMetric* b = find_metric(ex.base, name);
      const FlatMetric* c = find_metric(ex.current, name);
      SpanLabelDelta row;
      row.label = label;
      row.base_self_us = b != nullptr ? b->value : 0.0;
      row.current_self_us = c != nullptr ? c->value : 0.0;
      row.delta_us = row.current_self_us - row.base_self_us;
      row.rel_delta = rel_of(row.base_self_us, std::abs(row.delta_us));
      const FlatMetric* p50b = find_metric(ex.base, name + ".p50");
      const FlatMetric* p50c = find_metric(ex.current, name + ".p50");
      const FlatMetric* p99b = find_metric(ex.base, name + ".p99");
      const FlatMetric* p99c = find_metric(ex.current, name + ".p99");
      if (p50b != nullptr && p50c != nullptr && p99b != nullptr &&
          p99c != nullptr) {
        row.has_quantiles = true;
        row.p50_base = p50b->value;
        row.p50_current = p50c->value;
        row.p99_base = p99b->value;
        row.p99_current = p99c->value;
      }
      ex.spans.rows.push_back(std::move(row));
    }
    std::stable_sort(ex.spans.rows.begin(), ex.spans.rows.end(),
                     [](const SpanLabelDelta& a, const SpanLabelDelta& b) {
                       if (std::abs(a.delta_us) != std::abs(b.delta_us)) {
                         return std::abs(a.delta_us) > std::abs(b.delta_us);
                       }
                       return a.label < b.label;
                     });
  }

  // ---- ranked causes -----------------------------------------------------
  // Insertion order config -> attrib -> span -> metric; the stable sort on
  // score then keeps that order among ties, so a knob change always leads
  // and a measured layer beats a raw metric at equal movement.
  for (const ConfigDelta& d : ex.config_diff) {
    Cause c;
    c.layer = CauseLayer::kConfig;
    c.name = d.path;
    c.score = HUGE_VAL;
    switch (d.kind) {
      case ConfigDeltaKind::kChanged:
        c.detail = "semantic knob changed " + d.base + " -> " + d.current;
        break;
      case ConfigDeltaKind::kAdded:
        c.detail = "semantic knob added = " + d.current;
        break;
      case ConfigDeltaKind::kRemoved:
        c.detail = "semantic knob removed (was " + d.base + ")";
        break;
    }
    ex.causes.push_back(std::move(c));
  }
  for (const AttribSourceDelta& row : ex.attrib.rows) {
    if (row.delta_us == 0.0) continue;
    Cause c;
    c.layer = CauseLayer::kAttrib;
    c.name = row.source;
    c.metric = kAttribSrcPrefix + row.source + kStolenSuffix;
    c.score = row.rel_delta;
    c.detail = "stole " + fmt_signed(row.delta_us) + " us (" +
               fmt_signed_pct(row.base_us, row.delta_us) +
               " vs baseline, " + TextTable::fmt_percent(row.share, 1) +
               " of attribution movement)";
    ex.causes.push_back(std::move(c));
  }
  for (const SpanLabelDelta& row : ex.spans.rows) {
    if (row.delta_us == 0.0 &&
        (!row.has_quantiles || row.p99_base == row.p99_current)) {
      continue;
    }
    Cause c;
    c.layer = CauseLayer::kSpan;
    c.name = row.label;
    c.metric = kSpanPrefix + row.label + kSelfSuffix;
    c.score = row.rel_delta;
    c.detail = "self time " + fmt_signed(row.delta_us) + " us (" +
               fmt_signed_pct(row.base_self_us, row.delta_us) + ")";
    if (row.has_quantiles && row.p99_base != row.p99_current) {
      c.detail += ", p99 " + TextTable::fmt(row.p99_base, 2) + " -> " +
                  TextTable::fmt(row.p99_current, 2);
    }
    ex.causes.push_back(std::move(c));
  }
  for (const MetricDelta& d : ex.metrics.deltas) {
    if (d.abs_delta == 0.0) continue;
    // attrib.* / span.* movement already surfaces through its own layer;
    // repeating it here would double-count the same cause.
    if (starts_with(d.metric, "attrib.") ||
        starts_with(d.metric, kSpanPrefix)) {
      continue;
    }
    Cause c;
    c.layer = CauseLayer::kMetric;
    c.name = d.metric;
    c.metric = d.metric;
    c.score = d.rel_delta;
    c.detail = "moved " + TextTable::fmt_sci(d.baseline, 3) + " -> " +
               TextTable::fmt_sci(d.current, 3) + " (" +
               fmt_signed_pct(d.baseline, d.current - d.baseline) +
               (d.violation ? ", OUT OF TOLERANCE)" : ")");
    ex.causes.push_back(std::move(c));
  }
  std::stable_sort(ex.causes.begin(), ex.causes.end(),
                   [](const Cause& a, const Cause& b) {
                     return a.score > b.score;
                   });
  return ex;
}

void print_explain(std::ostream& os, const ExplainReport& ex,
                   std::size_t top) {
  print_banner(os, "Explain: " + ex.current.target + " — " +
                       ex.current.label + " vs " + ex.base.label);

  // [1/4] config
  print_banner(os, "[1/4] Config (canonical knob diff)");
  if (ex.config_known || !ex.base.config_hash.empty()) {
    if (ex.hash_equal) {
      os << "identical semantic config (hash "
         << short_hash(ex.current.config_hash) << ") — any delta below is "
         << "a code or noise change, not a knob change\n";
    } else if (!ex.config_known) {
      os << "config hashes differ (" << short_hash(ex.base.config_hash)
         << " vs " << short_hash(ex.current.config_hash)
         << ") but a side carries no config document to diff\n";
    } else {
      TextTable table({"kind", "knob", "base", "current"});
      for (const ConfigDelta& d : ex.config_diff) {
        const char* kind = d.kind == ConfigDeltaKind::kChanged ? "changed"
                           : d.kind == ConfigDeltaKind::kAdded ? "added"
                                                               : "removed";
        table.add_row({kind, d.path, d.base, d.current});
      }
      table.print(os);
    }
  } else {
    os << "no config attached on either side — config layer skipped\n";
  }

  // [2/4] metrics
  print_banner(os, "[2/4] Metric deltas (out-of-tolerance first)");
  {
    TextTable table(
        {"metric", "base", "current", "delta", "rel", "allowed", "flag"});
    for (std::size_t c = 1; c < 6; ++c) table.set_align(c, Align::kRight);
    std::size_t shown = 0;
    for (const MetricDelta& d : ex.metrics.deltas) {
      if (shown >= top) break;
      if (d.abs_delta == 0.0 && shown > 0) break;  // ranked: rest unchanged
      table.add_row({d.metric, TextTable::fmt_sci(d.baseline, 4),
                     TextTable::fmt_sci(d.current, 4),
                     fmt_signed(d.current - d.baseline),
                     TextTable::fmt_percent(d.rel_delta),
                     TextTable::fmt_percent(d.tolerance.rel),
                     d.violation ? "OUT-OF-TOL" : ""});
      ++shown;
    }
    table.print(os);
    os << ex.metrics.deltas.size() << " metric(s) compared";
    if (!ex.metrics.new_in_current.empty()) {
      os << ", " << ex.metrics.new_in_current.size() << " new";
    }
    if (!ex.metrics.missing_in_current.empty()) {
      os << ", " << ex.metrics.missing_in_current.size() << " dropped";
    }
    os << "\n";
    TextTable tree({"subsystem/object", "leaves", "changed", "flagged",
                    "sum |delta|", "max rel"});
    for (std::size_t c = 1; c < 6; ++c) tree.set_align(c, Align::kRight);
    for (const MetricTreeNode& n : ex.metric_tree) {
      tree.add_row({n.path,
                    TextTable::fmt_int(static_cast<long long>(n.leaves)),
                    TextTable::fmt_int(static_cast<long long>(n.changed)),
                    TextTable::fmt_int(static_cast<long long>(n.flagged)),
                    TextTable::fmt_sci(n.abs_sum, 3),
                    TextTable::fmt_percent(n.max_rel)});
      for (const MetricTreeNode& child : n.children) {
        tree.add_row({"  " + child.path,
                      TextTable::fmt_int(static_cast<long long>(child.leaves)),
                      TextTable::fmt_int(
                          static_cast<long long>(child.changed)),
                      TextTable::fmt_int(
                          static_cast<long long>(child.flagged)),
                      TextTable::fmt_sci(child.abs_sum, 3),
                      TextTable::fmt_percent(child.max_rel)});
      }
    }
    tree.print(os);
    if (!ex.metrics.host.empty()) {
      os << "advisory (host.* — tracked, never judged):\n";
      TextTable host({"host metric", "base", "current", "delta"});
      for (std::size_t c = 1; c < 4; ++c) host.set_align(c, Align::kRight);
      std::size_t shown_host = 0;
      for (const MetricDelta& d : ex.metrics.host) {
        if (shown_host++ >= top) break;
        host.add_row({d.metric, TextTable::fmt_sci(d.baseline, 4),
                      TextTable::fmt_sci(d.current, 4),
                      fmt_signed(d.current - d.baseline)});
      }
      host.print(os);
    }
  }

  // [3/4] attribution
  print_banner(os, "[3/4] Attribution delta (per noise source)");
  if (!ex.attrib.present) {
    os << "no attribution ledger metrics on either side — layer skipped\n";
  } else {
    TextTable table(
        {"source", "base us", "current us", "delta us", "rel", "share"});
    for (std::size_t c = 1; c < 6; ++c) table.set_align(c, Align::kRight);
    for (const AttribSourceDelta& row : ex.attrib.rows) {
      table.add_row({row.source, TextTable::fmt_sci(row.base_us, 4),
                     TextTable::fmt_sci(row.current_us, 4),
                     fmt_signed(row.delta_us),
                     TextTable::fmt_percent(row.rel_delta),
                     TextTable::fmt_percent(row.share, 1)});
    }
    table.print(os);
    os << "reconciliation: sum(per-source deltas) "
       << fmt_signed(ex.attrib.source_delta_sum_us) << " us vs total delta "
       << fmt_signed(ex.attrib.total_delta_us) << " us, error "
       << TextTable::fmt_sci(ex.attrib.reconciliation_error, 2) << " — "
       << (ex.attrib.reconciled ? "RECONCILED" : "DIVERGED") << "\n";
  }

  // [4/4] spans
  print_banner(os, "[4/4] Span self-time / quantile shifts (per label)");
  if (!ex.spans.present) {
    os << "no span-label metrics on either side — layer skipped\n";
  } else {
    TextTable table({"label", "self base us", "self cur us", "delta us",
                     "p50 shift", "p99 shift"});
    for (std::size_t c = 1; c < 6; ++c) table.set_align(c, Align::kRight);
    for (const SpanLabelDelta& row : ex.spans.rows) {
      table.add_row(
          {row.label, TextTable::fmt_sci(row.base_self_us, 4),
           TextTable::fmt_sci(row.current_self_us, 4),
           fmt_signed(row.delta_us),
           row.has_quantiles ? TextTable::fmt(row.p50_base, 2) + " -> " +
                                   TextTable::fmt(row.p50_current, 2)
                             : "-",
           row.has_quantiles ? TextTable::fmt(row.p99_base, 2) + " -> " +
                                   TextTable::fmt(row.p99_current, 2)
                             : "-"});
    }
    table.print(os);
  }

  // Headline: stable, greppable lines the CI pass-regexes anchor on.
  print_banner(os, "Root cause ranking");
  std::size_t rank = 1;
  for (const Cause& c : ex.causes) {
    if (rank > top) break;
    os << "  " << rank << ". " << cause_line(c) << "\n";
    ++rank;
  }
  if (const Cause* c = ex.top_cause()) {
    os << "explain: top cause: " << to_string(c->layer) << " \"" << c->name
       << "\" — " << c->detail << "\n";
  } else {
    os << "explain: top cause: none — runs are identical under the "
       << "tolerance policy\n";
  }
  if (const MetricDelta* m = ex.top_metric()) {
    os << "explain: top metric: " << m->metric << " ("
       << fmt_signed_pct(m->baseline, m->current - m->baseline) << ", allowed "
       << TextTable::fmt_percent(m->tolerance.rel) << ")\n";
  }
}

void print_explain_summary(std::ostream& os, const ExplainReport& ex,
                           std::size_t top) {
  os << "explanation: " << ex.current.target << " @ "
     << short_hash(ex.current.config_hash) << " — " << ex.current.label
     << " vs " << ex.base.label << "\n";
  if (ex.causes.empty()) {
    os << "  no cause found: runs identical under the tolerance policy\n";
    return;
  }
  std::size_t rank = 1;
  for (const Cause& c : ex.causes) {
    if (rank > top) break;
    os << "  " << rank << ". " << cause_line(c) << "\n";
    ++rank;
  }
  const Cause& c = ex.causes.front();
  os << "explain: top cause: " << to_string(c.layer) << " \"" << c.name
     << "\" — " << c.detail << "\n";
  if (ex.attrib.present) {
    os << "  attribution "
       << (ex.attrib.reconciled ? "reconciled" : "DIVERGED") << " (error "
       << TextTable::fmt_sci(ex.attrib.reconciliation_error, 2) << ")\n";
  }
}

void add_explain_metrics(BenchReport& report, const ExplainReport& ex) {
  report.add_metric("explain.config.known", "bool",
                    ex.config_known ? 1.0 : 0.0);
  report.add_metric("explain.config.hash_equal", "bool",
                    ex.hash_equal ? 1.0 : 0.0);
  report.add_metric("explain.config.changed.count", "count",
                    static_cast<double>(ex.config_diff.size()));
  report.add_metric("explain.metrics.compared.count", "count",
                    static_cast<double>(ex.metrics.deltas.size()));
  std::size_t changed = 0;
  std::size_t flagged = 0;
  for (const MetricDelta& d : ex.metrics.deltas) {
    if (d.abs_delta > 0.0) ++changed;
    if (d.violation) ++flagged;
  }
  report.add_metric("explain.metrics.changed.count", "count",
                    static_cast<double>(changed));
  report.add_metric("explain.metrics.flagged.count", "count",
                    static_cast<double>(flagged));
  report.add_metric("explain.metrics.new.count", "count",
                    static_cast<double>(ex.metrics.new_in_current.size()));
  report.add_metric("explain.metrics.dropped.count", "count",
                    static_cast<double>(ex.metrics.missing_in_current.size()));
  report.add_metric("explain.attrib.present", "bool",
                    ex.attrib.present ? 1.0 : 0.0);
  if (ex.attrib.present) {
    report.add_metric("explain.attrib.total_delta_us", "us",
                      ex.attrib.total_delta_us);
    report.add_metric("explain.attrib.source_delta_sum_us", "us",
                      ex.attrib.source_delta_sum_us);
    report.add_metric("explain.attrib.reconciliation_error", "ratio",
                      ex.attrib.reconciliation_error);
    report.add_metric("explain.attrib.reconciled", "bool",
                      ex.attrib.reconciled ? 1.0 : 0.0);
    for (const AttribSourceDelta& row : ex.attrib.rows) {
      report.add_metric("explain.attrib.src." + row.source + ".delta_us",
                        "us", row.delta_us);
    }
  }
  report.add_metric("explain.span.labels.count", "count",
                    static_cast<double>(ex.spans.rows.size()));
  for (const SpanLabelDelta& row : ex.spans.rows) {
    report.add_metric("explain.span." + row.label + ".delta_us", "us",
                      row.delta_us);
  }
  report.add_metric("explain.causes.count", "count",
                    static_cast<double>(ex.causes.size()));
  // Layer index of the headline (0 config, 1 attrib, 2 span, 3 metric);
  // -1 when the runs are indistinguishable.
  report.add_metric(
      "explain.top_cause.layer", "count",
      ex.causes.empty()
          ? -1.0
          : static_cast<double>(static_cast<int>(ex.causes.front().layer)));
}

void add_span_label_metrics(
    BenchReport& report, const std::vector<sim::TraceRecord>& records,
    const std::map<std::string, LogHistogram>* label_sketches) {
  const sim::SpanForest forest(records);
  // Summed self time per label over every spanned record — nested spans
  // never double count because self = total - children in the forest.
  std::map<std::string, double> self_us;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::TraceRecord& r = records[i];
    if (r.span == 0 || r.label.empty()) continue;
    self_us[r.label] += forest.self_time(i).to_us();
  }
  for (const auto& [label, total] : self_us) {
    BenchMetric m;
    m.name = std::string(kSpanPrefix) + label + kSelfSuffix;
    m.unit = "us";
    m.value = total;
    if (label_sketches != nullptr) {
      const auto it = label_sketches->find(label);
      if (it != label_sketches->end() && it->second.total_count() > 0) {
        m.percentiles["p50"] = it->second.quantile(0.50);
        m.percentiles["p99"] = it->second.quantile(0.99);
      }
    }
    report.add_metric(std::move(m));
  }
}

}  // namespace hpcos::obs::explain
