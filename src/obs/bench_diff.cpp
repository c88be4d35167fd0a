#include "obs/bench_diff.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/bench_report.h"

namespace hpcos::obs {

namespace {

std::vector<FlatMetric> flatten_report(const JsonValue& report) {
  std::vector<FlatMetric> out;
  for (const JsonValue& m : report.at("metrics").as_array()) {
    flatten_metric(m, &out);
  }
  return out;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

// An unrecognized key in a tolerance policy is almost certainly a typo
// ("patern", "abss") that would silently disable the rule it was meant
// to configure — precisely the failure a regression gate must not have.
// Unknown keys are therefore collected across the whole document and
// reported as a hard error, likeliest typos first.
struct UnknownKey {
  std::string location;  // e.g. "metrics[3].patern"
  std::string suggestion;
  std::size_t distance = 0;
};

void collect_unknown_keys(const JsonValue& obj, const std::string& where,
                          std::initializer_list<const char*> allowed,
                          std::vector<UnknownKey>& out) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (known) continue;
    UnknownKey u;
    u.location = where.empty() ? key : where + "." + key;
    u.distance = std::string::npos;
    for (const char* a : allowed) {
      const std::size_t d = edit_distance(key, a);
      if (d < u.distance) {
        u.distance = d;
        u.suggestion = a;
      }
    }
    out.push_back(std::move(u));
  }
}

MetricTolerance parse_tolerance_fields(const JsonValue& obj,
                                       MetricTolerance base) {
  if (const JsonValue* rel = obj.find("rel")) base.rel = rel->as_number();
  if (const JsonValue* abs = obj.find("abs")) base.abs = abs->as_number();
  if (base.rel < 0.0 || base.abs < 0.0) {
    throw std::runtime_error("tolerances: rel/abs must be non-negative");
  }
  return base;
}

}  // namespace

const MetricTolerance& DiffPolicy::lookup(const std::string& metric) const {
  for (const ToleranceRule& rule : rules) {
    if (glob_match(rule.pattern, metric)) return rule.tolerance;
  }
  return fallback;
}

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' glob: on mismatch, retry from the last star with one more
  // character consumed.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

DiffPolicy parse_tolerance_policy(const JsonValue& doc) {
  if (!doc.is_object()) {
    throw std::runtime_error("tolerances: document is not a JSON object");
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kBenchTolerancesSchema) {
    throw std::runtime_error(std::string("tolerances: schema is not \"") +
                             kBenchTolerancesSchema + "\"");
  }
  // Strict key validation before any rule parsing, so a typoed "pattern"
  // reports as an unknown key with a suggestion instead of "missing key".
  std::vector<UnknownKey> unknown;
  collect_unknown_keys(doc, "", {"schema", "default", "metrics"}, unknown);
  if (const JsonValue* def = doc.find("default"); def != nullptr) {
    collect_unknown_keys(*def, "default", {"rel", "abs"}, unknown);
  }
  if (const JsonValue* metrics = doc.find("metrics"); metrics != nullptr) {
    const auto& entries = metrics->as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      collect_unknown_keys(entries[i],
                           "metrics[" + std::to_string(i) + "]",
                           {"pattern", "rel", "abs"}, unknown);
    }
  }
  if (!unknown.empty()) {
    std::stable_sort(unknown.begin(), unknown.end(),
                     [](const UnknownKey& a, const UnknownKey& b) {
                       return a.distance < b.distance;
                     });
    std::string msg = "tolerances: unknown key(s):";
    for (const UnknownKey& u : unknown) {
      msg += " " + u.location;
      if (u.distance <= 3) {
        msg += " (did you mean \"" + u.suggestion + "\"?)";
      }
      msg += ";";
    }
    throw std::runtime_error(msg);
  }

  DiffPolicy policy;
  if (const JsonValue* def = doc.find("default")) {
    policy.fallback = parse_tolerance_fields(*def, MetricTolerance{});
  }
  if (const JsonValue* metrics = doc.find("metrics")) {
    for (const JsonValue& entry : metrics->as_array()) {
      ToleranceRule rule;
      rule.pattern = entry.at("pattern").as_string();
      // Rules refine the fallback, not the built-in defaults, so a policy
      // file's "default" supplies whatever a rule does not set.
      rule.tolerance = parse_tolerance_fields(entry, policy.fallback);
      policy.rules.push_back(std::move(rule));
    }
  }
  return policy;
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return JsonValue::parse(buf.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

DiffPolicy load_tolerance_policy(const std::string& path) {
  return parse_tolerance_policy(load_json_file(path));
}

MetricComparison compare_metrics(const std::vector<FlatMetric>& baseline,
                                 const std::vector<FlatMetric>& current,
                                 const DiffPolicy& policy) {
  auto find = [](const std::vector<FlatMetric>& side,
                 const std::string& name) -> const FlatMetric* {
    for (const FlatMetric& m : side) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  MetricComparison out;
  for (const FlatMetric& c : current) {
    const bool host = is_host_metric(c.name);
    const FlatMetric* b = find(baseline, c.name);
    if (b == nullptr) {
      if (!host) out.new_in_current.push_back(c.name);
      continue;
    }
    MetricDelta d;
    d.metric = c.name;
    d.unit = c.unit;
    d.baseline = b->value;
    d.current = c.value;
    d.abs_delta = std::abs(c.value - b->value);
    d.rel_delta = d.abs_delta / std::max(std::abs(b->value), DBL_MIN);
    if (host) {
      out.host.push_back(std::move(d));
      continue;
    }
    const MetricTolerance& tol = policy.lookup(c.name);
    d.tolerance = tol;
    d.violation =
        d.abs_delta > std::max(tol.abs, tol.rel * std::abs(b->value));
    out.deltas.push_back(std::move(d));
  }
  for (const FlatMetric& b : baseline) {
    if (is_host_metric(b.name)) continue;
    if (find(current, b.name) == nullptr) {
      out.missing_in_current.push_back(b.name);
    }
  }
  return out;
}

bool ranks_before(const MetricDelta& a, const MetricDelta& b) {
  if (a.violation != b.violation) return a.violation;
  if (a.rel_delta != b.rel_delta) return a.rel_delta > b.rel_delta;
  return a.metric < b.metric;
}

DiffResult diff_reports(const JsonValue& current, const JsonValue& baseline,
                        const DiffPolicy& policy) {
  if (const std::string err = validate_bench_report(current); !err.empty()) {
    throw std::runtime_error("current report invalid: " + err);
  }
  if (const std::string err = validate_bench_report(baseline);
      !err.empty()) {
    throw std::runtime_error("baseline report invalid: " + err);
  }
  if (current.at("bench").as_string() != baseline.at("bench").as_string()) {
    throw std::runtime_error(
        "bench mismatch: current is \"" + current.at("bench").as_string() +
        "\", baseline is \"" + baseline.at("bench").as_string() + "\"");
  }

  DiffResult r{compare_metrics(flatten_report(baseline),
                               flatten_report(current), policy),
               {}};
  for (const MetricDelta& d : r.deltas) {
    if (d.violation) r.violations.push_back(d);
  }
  std::stable_sort(r.violations.begin(), r.violations.end(), ranks_before);
  return r;
}

BenchReport diff_result_report(const DiffResult& result,
                               const std::string& bench_name, bool quick) {
  BenchReport report("bench_diff", quick);
  report.add_metric("gate.ok", "bool", result.ok() ? 1.0 : 0.0);
  report.add_metric("gate.bench." + bench_name + ".compared", "count",
                    static_cast<double>(result.deltas.size()));
  report.add_metric("gate.compared.count", "count",
                    static_cast<double>(result.deltas.size()));
  report.add_metric("gate.violations.count", "count",
                    static_cast<double>(result.violations.size()));
  report.add_metric("gate.missing.count", "count",
                    static_cast<double>(result.missing_in_current.size()));
  report.add_metric("gate.new.count", "count",
                    static_cast<double>(result.new_in_current.size()));
  report.add_metric("gate.worst.rel_delta", "ratio",
                    result.violations.empty()
                        ? 0.0
                        : result.violations.front().rel_delta);
  for (const MetricDelta& v : result.violations) {
    report.add_metric("gate.violation." + v.metric + ".rel", "ratio",
                      v.rel_delta);
  }
  return report;
}

}  // namespace hpcos::obs
