#include "obs/trend.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/confighash.h"
#include "obs/runlog.h"

namespace hpcos::obs::trend {

namespace {

// Glyph ramp, lowest to highest value.
constexpr const char* kRamp = ".:-=+*#%@";
constexpr std::size_t kRampLevels = 9;

std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

MetricSeries* find_or_add_metric(RunGroup& group, const std::string& name,
                                 const std::string& unit) {
  for (MetricSeries& m : group.metrics) {
    if (m.name == name) return &m;
  }
  group.metrics.push_back(MetricSeries{name, unit, {}});
  return &group.metrics.back();
}

// MAD pooled around per-segment medians: robust noise scale that a level
// shift between the segments does not inflate (a plain whole-series MAD
// would absorb the very step we are trying to score).
double pooled_segment_mad(const std::vector<double>& values,
                          std::size_t split, double med_before,
                          double med_after) {
  std::vector<double> dev;
  dev.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    dev.push_back(std::abs(values[i] - (i < split ? med_before : med_after)));
  }
  return median(std::move(dev));
}

}  // namespace

RunSnapshot snapshot_from_report(const JsonValue& report_doc,
                                 std::string label) {
  if (const std::string err = validate_bench_report(report_doc);
      !err.empty()) {
    throw std::runtime_error("bench report invalid: " + err);
  }
  RunSnapshot snap;
  snap.label = label.empty() ? "bench report" : std::move(label);
  snap.target = report_doc.at("bench").as_string();
  // BenchReport documents carry no config member today; a future "config"
  // member slots straight in.
  if (const JsonValue* config = report_doc.find("config");
      config != nullptr && config->is_object()) {
    snap.config = *config;
    snap.config_hash = config_hash_hex(*config);
  }
  for (const JsonValue& m : report_doc.at("metrics").as_array()) {
    flatten_metric(m, &snap.metrics);
  }
  return snap;
}

RunSnapshot snapshot_from_record(const JsonValue& record, std::string label) {
  if (const std::string err = validate_run_record(record); !err.empty()) {
    throw std::runtime_error("run record invalid: " + err);
  }
  RunSnapshot snap;
  snap.target = record.at("target").as_string();
  snap.config_hash = record.at("config_hash").as_string();
  snap.label = label.empty()
                   ? snap.target + " @ " + short_hash(snap.config_hash)
                   : std::move(label);
  if (const JsonValue* config = record.find("config");
      config != nullptr && config->is_object()) {
    snap.config = *config;
  }
  for (const JsonValue& m : record.at("metrics").as_array()) {
    flatten_metric(m, &snap.metrics);
  }
  // host.* metrics live in the record's host half (excluded from the
  // deterministic line), but trend is exactly the tool that should see
  // them — host.progress.events_per_sec.* across commits is the
  // throughput trajectory. compare_metrics tracks them, never judges them.
  if (const JsonValue* host = record.find("host");
      host != nullptr && host->is_object()) {
    if (const JsonValue* metrics = host->find("metrics");
        metrics != nullptr && metrics->is_array()) {
      for (const JsonValue& m : metrics->as_array()) {
        flatten_metric(m, &snap.metrics);
      }
    }
  }
  return snap;
}

std::string select_group(const std::vector<JsonValue>& records,
                         const std::string& target,
                         const std::string& hash_prefix,
                         std::vector<JsonValue>* out) {
  out->clear();
  std::vector<std::string> hashes;  // distinct, first-seen order
  for (const JsonValue& r : records) {
    if (r.at("target").as_string() != target) continue;
    const std::string& hash = r.at("config_hash").as_string();
    if (!hash_prefix.empty() && hash.rfind(hash_prefix, 0) != 0) continue;
    if (std::find(hashes.begin(), hashes.end(), hash) == hashes.end()) {
      hashes.push_back(hash);
    }
    out->push_back(r);
  }
  if (out->empty()) {
    return "no ledger records for target \"" + target + "\"" +
           (hash_prefix.empty() ? std::string{}
                                : " with config prefix " + hash_prefix);
  }
  if (hashes.size() > 1) {
    std::string err = "target \"" + target + "\" has " +
                      std::to_string(hashes.size()) +
                      " config groups; disambiguate with --config <prefix>:";
    for (const std::string& h : hashes) err += " " + h;
    out->clear();
    return err;
  }
  return {};
}

RunSnapshot snapshot_newest(const std::vector<JsonValue>& group) {
  if (group.empty()) {
    throw std::runtime_error("snapshot_newest: empty group");
  }
  return snapshot_from_record(group.back(), "newest run");
}

RunSnapshot median_of_prior(const std::vector<JsonValue>& group) {
  if (group.size() < 2) {
    throw std::runtime_error(
        "median_of_prior: need at least 2 runs in the group (have " +
        std::to_string(group.size()) + ")");
  }
  // Per flattened metric, the median over every run but the newest.
  std::vector<FlatMetric> order;  // first-seen order, value unused
  std::vector<std::vector<double>> values;
  for (std::size_t i = 0; i + 1 < group.size(); ++i) {
    RunSnapshot snap = snapshot_from_record(group[i]);
    for (const FlatMetric& m : snap.metrics) {
      std::size_t slot = order.size();
      for (std::size_t j = 0; j < order.size(); ++j) {
        if (order[j].name == m.name) {
          slot = j;
          break;
        }
      }
      if (slot == order.size()) {
        order.push_back(m);
        values.emplace_back();
      }
      values[slot].push_back(m.value);
    }
  }
  RunSnapshot base;
  base.label =
      "median of " + std::to_string(group.size() - 1) + " prior run(s)";
  base.target = group.front().at("target").as_string();
  base.config_hash = group.front().at("config_hash").as_string();
  const JsonValue& prior = group[group.size() - 2];
  if (const JsonValue* config = prior.find("config");
      config != nullptr && config->is_object()) {
    base.config = *config;
  }
  for (std::size_t j = 0; j < order.size(); ++j) {
    base.metrics.push_back(
        {order[j].name, order[j].unit, median(values[j])});
  }
  return base;
}

std::string short_hash(const std::string& config_hash) {
  return config_hash.substr(0, 8);
}

std::vector<RunGroup> group_records(const std::vector<JsonValue>& records) {
  std::vector<RunGroup> groups;
  for (const JsonValue& record : records) {
    const RunSnapshot snap = snapshot_from_record(record);
    RunGroup* group = nullptr;
    for (RunGroup& g : groups) {
      if (g.target == snap.target && g.config_hash == snap.config_hash) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(RunGroup{snap.target, snap.config_hash, {}, {}});
      group = &groups.back();
    }
    group->records.push_back(record);
    for (const FlatMetric& f : snap.metrics) {
      find_or_add_metric(*group, f.name, f.unit)->values.push_back(f.value);
    }
  }
  return groups;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

std::string sparkline(const std::vector<double>& values,
                      std::size_t max_width) {
  if (values.empty() || max_width == 0) return {};
  const std::size_t start =
      values.size() > max_width ? values.size() - max_width : 0;
  double lo = values[start];
  double hi = values[start];
  for (std::size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  out.reserve(values.size() - start);
  for (std::size_t i = start; i < values.size(); ++i) {
    std::size_t level = kRampLevels / 2;  // flat line for constant series
    if (hi > lo) {
      level = static_cast<std::size_t>((values[i] - lo) / (hi - lo) *
                                       static_cast<double>(kRampLevels - 1) +
                                       0.5);
      level = std::min(level, kRampLevels - 1);
    }
    out += kRamp[level];
  }
  return out;
}

std::vector<Regression> find_regressions(const std::vector<RunGroup>& groups,
                                         const DiffPolicy& policy) {
  std::vector<Regression> out;
  for (const RunGroup& group : groups) {
    if (group.records.size() < 2) continue;
    const MetricComparison compared =
        compare_metrics(median_of_prior(group.records).metrics,
                        snapshot_newest(group.records).metrics, policy);
    for (const MetricDelta& d : compared.deltas) {
      if (d.violation) {
        out.push_back(Regression{d, group.target, group.config_hash});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), ranks_before);
  return out;
}

std::vector<Drift> find_drift(const std::vector<RunGroup>& groups,
                              double min_score, std::size_t min_segment) {
  std::vector<Drift> out;
  if (min_segment == 0) min_segment = 1;
  for (const RunGroup& group : groups) {
    for (const MetricSeries& m : group.metrics) {
      const std::size_t n = m.values.size();
      if (n < 2 * min_segment) continue;
      if (is_host_metric(m.name)) continue;  // tracked, not judged
      Drift best;
      for (std::size_t split = min_segment; split + min_segment <= n;
           ++split) {
        const double med_before = median(std::vector<double>(
            m.values.begin(), m.values.begin() + split));
        const double med_after = median(std::vector<double>(
            m.values.begin() + split, m.values.end()));
        const double spread =
            pooled_segment_mad(m.values, split, med_before, med_after);
        // Relative floor: an exactly-constant history has zero MAD, and
        // any step on it must score as a clean detection, not divide by
        // zero.
        const double scale = std::max(
            spread, 1e-12 + 1e-9 * std::max(std::abs(med_before),
                                            std::abs(med_after)));
        const double score = std::abs(med_after - med_before) / scale;
        if (score > best.score) {
          best.split = split;
          best.before_median = med_before;
          best.after_median = med_after;
          best.score = score;
        }
      }
      if (best.score > min_score) {
        best.target = group.target;
        best.config_hash = group.config_hash;
        best.metric = m.name;
        out.push_back(std::move(best));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Drift& a, const Drift& b) {
                     return a.score > b.score;
                   });
  return out;
}

std::string trend_openmetrics_text(const std::vector<RunGroup>& groups) {
  std::ostringstream os;
  os << "# TYPE hpcos_trend gauge\n";
  for (const RunGroup& group : groups) {
    os << "hpcos_trend_runs{target=\"" << escape_label(group.target)
       << "\",config=\"" << escape_label(group.config_hash) << "\"} "
       << group.records.size() << '\n';
    for (const MetricSeries& m : group.metrics) {
      if (m.values.empty()) continue;
      const std::string labels = "target=\"" + escape_label(group.target) +
                                 "\",config=\"" +
                                 escape_label(group.config_hash) +
                                 "\",metric=\"" + escape_label(m.name) +
                                 "\"";
      os << "hpcos_trend{" << labels << ",stat=\"last\"} "
         << json_format_number(m.values.back()) << '\n';
      os << "hpcos_trend{" << labels << ",stat=\"median\"} "
         << json_format_number(median(m.values)) << '\n';
    }
  }
  os << "# EOF\n";
  return os.str();
}

}  // namespace hpcos::obs::trend
