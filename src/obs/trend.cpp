#include "obs/trend.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <sstream>

#include "obs/bench_report.h"

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

std::vector<RunGroup> group_records(const std::vector<JsonValue>& records) {
  std::vector<RunGroup> groups;
  for (const JsonValue& record : records) {
    const std::string& target = record.at("target").as_string();
    const std::string& hash = record.at("config_hash").as_string();
    RunGroup* group = nullptr;
    for (RunGroup& g : groups) {
      if (g.target == target && g.config_hash == hash) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(RunGroup{target, hash, 0, {}});
      group = &groups.back();
    }
    ++group->runs;
    std::vector<FlatMetric> flat;
    for (const JsonValue& m : record.at("metrics").as_array()) {
      flatten_metric(m, &flat);
    }
    // host.* metrics live in the record's host half (excluded from the
    // deterministic line), but trend is exactly the tool that should see
    // them — host.progress.events_per_sec.* across commits is the
    // throughput trajectory. They stay host-named, so the regression and
    // drift scans below skip them.
    if (const JsonValue* host = record.find("host");
        host != nullptr && host->is_object()) {
      if (const JsonValue* metrics = host->find("metrics");
          metrics != nullptr && metrics->is_array()) {
        for (const JsonValue& m : metrics->as_array()) {
          flatten_metric(m, &flat);
        }
      }
    }
    for (const FlatMetric& f : flat) {
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

double mad(const std::vector<double>& values, double center) {
  std::vector<double> dev;
  dev.reserve(values.size());
  for (const double v : values) dev.push_back(std::abs(v - center));
  return median(std::move(dev));
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
    if (group.runs < 2) continue;
    for (const MetricSeries& m : group.metrics) {
      if (m.values.size() < 2) continue;
      // Host telemetry is tracked, never judged: wall-clock rates move
      // with the machine, and flagging them would train people to
      // ignore the gate. The hard skip backs up the tolerance rules.
      if (is_host_metric(m.name)) continue;
      const MetricTolerance& tol = policy.lookup(m.name);
      if (tol.ignore) continue;
      const double current = m.values.back();
      const double baseline = median(std::vector<double>(
          m.values.begin(), m.values.end() - 1));
      const double abs_delta = std::abs(current - baseline);
      if (abs_delta <= std::max(tol.abs, tol.rel * std::abs(baseline))) {
        continue;
      }
      Regression r;
      r.target = group.target;
      r.config_hash = group.config_hash;
      r.metric = m.name;
      r.baseline = baseline;
      r.current = current;
      r.rel_delta = abs_delta / std::max(std::abs(baseline), DBL_MIN);
      r.tolerance = tol;
      out.push_back(std::move(r));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Regression& a, const Regression& b) {
                     return a.rel_delta > b.rel_delta;
                   });
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
       << group.runs << '\n';
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
