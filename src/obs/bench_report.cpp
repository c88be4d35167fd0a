#include "obs/bench_report.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <set>

#include "common/parallel.h"
#include "obs/live/live.h"
#include "obs/prof/prof.h"
#include "obs/prof_report.h"
#include "obs/runlog.h"
#include "obs/timeseries/timeseries.h"

namespace hpcos::obs {

namespace {

// Ledger timestamp, injected at this edge only: HPCOS_RUN_TIMESTAMP
// overrides (CI can stamp a commit date; tests can pin a constant), else
// the current UTC wall clock. Record construction itself never reads a
// clock (obs/runlog determinism contract).
std::string ledger_timestamp() {
  if (const char* injected = std::getenv("HPCOS_RUN_TIMESTAMP");
      injected != nullptr && injected[0] != '\0') {
    return injected;
  }
  const std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

}  // namespace

JsonValue metric_to_json(const BenchMetric& m) {
  JsonValue metric = JsonValue::object();
  metric.set("name", m.name);
  metric.set("unit", m.unit);
  metric.set("value", m.value);
  if (!m.percentiles.empty()) {
    JsonValue pct = JsonValue::object();
    for (const auto& [k, v] : m.percentiles) pct.set(k, v);
    metric.set("percentiles", std::move(pct));
  }
  return metric;
}

bool is_host_metric(const std::string& name) {
  return name.starts_with("host.");
}

void flatten_metric(const JsonValue& entry, std::vector<FlatMetric>* out) {
  const std::string& name = entry.at("name").as_string();
  const std::string& unit = entry.at("unit").as_string();
  out->push_back({name, unit, entry.at("value").as_number()});
  if (const JsonValue* pct = entry.find("percentiles");
      pct != nullptr && pct->is_object()) {
    for (const auto& [key, value] : pct->members()) {
      out->push_back({name + "." + key, unit, value.as_number()});
    }
  }
}

BenchReport::BenchReport(std::string bench_name, bool quick,
                         std::uint64_t seed)
    : bench_name_(std::move(bench_name)), quick_(quick), seed_(seed) {}

void BenchReport::add_metric(const std::string& name, const std::string& unit,
                             double value) {
  add_metric(BenchMetric{.name = name, .unit = unit, .value = value});
}

void BenchReport::add_metric(BenchMetric metric) {
  metrics_.push_back(std::move(metric));
}

bool BenchReport::has_metric(const std::string& name) const {
  for (const BenchMetric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void BenchReport::add_series(const std::string& name, const std::string& unit,
                             const ts::TimeSeries& series) {
  JsonValue s = JsonValue::object();
  s.set("name", name);
  s.set("unit", unit);
  s.set("resolution_us",
        static_cast<double>(series.resolution().count_ns()) / 1e3);
  s.set("coarsens", series.coarsen_count());
  JsonValue buckets = JsonValue::array();
  for (std::size_t i = 0; i < series.bucket_count(); ++i) {
    const ts::SeriesBucket& b = series.bucket(i);
    if (b.empty()) continue;
    JsonValue bucket = JsonValue::object();
    bucket.set("t_us",
               static_cast<double>(series.bucket_start(i).count_ns()) / 1e3);
    bucket.set("min", b.min);
    bucket.set("max", b.max);
    bucket.set("sum", b.sum);
    bucket.set("count", b.count);
    buckets.push_back(std::move(bucket));
  }
  s.set("buckets", std::move(buckets));
  series_.push_back(std::move(s));
}

JsonValue BenchReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kBenchReportSchema);
  doc.set("bench", bench_name_);
  doc.set("quick", quick_);
  doc.set("seed", static_cast<double>(seed_));
  JsonValue platform = JsonValue::object();
  platform.set("host_parallelism",
               static_cast<std::uint64_t>(default_parallelism()));
  doc.set("platform", std::move(platform));
  JsonValue metrics = JsonValue::array();
  for (const auto& m : metrics_) metrics.push_back(metric_to_json(m));
  doc.set("metrics", std::move(metrics));
  if (!series_.empty()) {
    JsonValue series = JsonValue::array();
    for (const auto& s : series_) series.push_back(s);
    doc.set("series", std::move(series));
  }
  return doc;
}

void BenchReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open bench report path: " + path);
  }
  out << to_json().dump_pretty();
  if (!out) {
    throw std::runtime_error("write failed for bench report: " + path);
  }
}

std::string validate_bench_report(const JsonValue& doc) {
  if (!doc.is_object()) return "document is not a JSON object";
  for (const char* key : {"schema", "bench", "quick", "seed", "metrics"}) {
    if (!doc.contains(key)) return std::string("missing key \"") + key + "\"";
  }
  if (!doc.at("schema").is_string() ||
      doc.at("schema").as_string() != kBenchReportSchema) {
    return "schema is not \"" + std::string(kBenchReportSchema) + "\"";
  }
  if (!doc.at("bench").is_string() || doc.at("bench").as_string().empty()) {
    return "bench name missing or empty";
  }
  if (!doc.at("quick").is_bool()) return "quick is not a bool";
  if (!doc.at("metrics").is_array()) return "metrics is not an array";
  const auto& metrics = doc.at("metrics").as_array();
  if (metrics.empty()) return "metrics array is empty";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (!m.is_object()) return where + " is not an object";
    for (const char* key : {"name", "unit", "value"}) {
      if (!m.contains(key)) return where + " missing \"" + key + "\"";
    }
    if (!m.at("name").is_string() || m.at("name").as_string().empty()) {
      return where + " name missing or empty";
    }
    if (!m.at("unit").is_string()) return where + " unit is not a string";
    if (!m.at("value").is_number()) {
      // The writer refuses NaN/Inf (json_format_number throws), so a
      // non-number here means a hand-edited or foreign document.
      return where + " value is missing or not a number";
    }
    if (!std::isfinite(m.at("value").as_number())) {
      return where + " value is not finite";
    }
    if (const JsonValue* pct = m.find("percentiles"); pct != nullptr) {
      if (!pct->is_object()) return where + " percentiles is not an object";
      for (const auto& [k, v] : pct->members()) {
        if (!v.is_number() || !std::isfinite(v.as_number())) {
          return where + " percentile \"" + k + "\" is NaN or missing";
        }
      }
    }
  }
  // Every reader keys metrics by flattened name, and a repeat would make
  // them disagree on which copy counts (bench_diff reads the first).
  std::vector<FlatMetric> flat;
  for (const JsonValue& m : metrics) flatten_metric(m, &flat);
  std::set<std::string> seen;
  for (const FlatMetric& f : flat) {
    if (!seen.insert(f.name).second) {
      return "metric name \"" + f.name + "\" repeats";
    }
  }
  if (const JsonValue* series = doc.find("series"); series != nullptr) {
    if (!series->is_array()) return "series is not an array";
    const auto& entries = series->as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& s = entries[i];
      const std::string where = "series[" + std::to_string(i) + "]";
      if (!s.is_object()) return where + " is not an object";
      if (!s.contains("name") || !s.at("name").is_string() ||
          s.at("name").as_string().empty()) {
        return where + " name missing or empty";
      }
      if (!s.contains("resolution_us") ||
          !s.at("resolution_us").is_number() ||
          !std::isfinite(s.at("resolution_us").as_number())) {
        return where + " resolution_us missing or not finite";
      }
      if (!s.contains("buckets") || !s.at("buckets").is_array()) {
        return where + " buckets missing or not an array";
      }
      const auto& buckets = s.at("buckets").as_array();
      for (std::size_t j = 0; j < buckets.size(); ++j) {
        const auto& b = buckets[j];
        const std::string bwhere =
            where + ".buckets[" + std::to_string(j) + "]";
        if (!b.is_object()) return bwhere + " is not an object";
        for (const char* key : {"t_us", "min", "max", "sum", "count"}) {
          if (!b.contains(key) || !b.at(key).is_number() ||
              !std::isfinite(b.at(key).as_number())) {
            return bwhere + " \"" + key + "\" missing or not finite";
          }
        }
      }
    }
  }
  return {};
}

namespace {

// Default watchdog threshold when --watchdog is given bare.
constexpr double kDefaultWatchdogS = 30.0;

std::string argv0_basename(int argc, char** argv) {
  if (argc <= 0 || argv[0] == nullptr || argv[0][0] == '\0') return "bench";
  std::string name = argv[0];
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? "bench" : name;
}

}  // namespace

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions opts;
  if (argc > 0) opts.remaining.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      opts.sinks.profile = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--json requires a path argument\n";
        std::exit(2);
      }
      opts.sinks.json_path = argv[++i];
    } else if (std::strcmp(arg, "--ledger") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--ledger requires a path argument\n";
        std::exit(2);
      }
      opts.sinks.ledger_path = argv[++i];
    } else if (std::strcmp(arg, "--progress") == 0) {
      opts.sinks.progress = true;
    } else if (std::strncmp(arg, "--progress=", 11) == 0) {
      opts.sinks.progress = true;
      opts.sinks.progress_interval_ms = std::atoi(arg + 11);
      if (opts.sinks.progress_interval_ms <= 0) {
        std::cerr << "--progress=<interval_ms> requires a positive integer\n";
        std::exit(2);
      }
    } else if (std::strcmp(arg, "--progress-file") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--progress-file requires a path argument\n";
        std::exit(2);
      }
      opts.sinks.heartbeat_path = argv[++i];
      opts.sinks.progress = true;
    } else if (std::strcmp(arg, "--watchdog") == 0) {
      opts.sinks.watchdog_stall_s = kDefaultWatchdogS;
    } else if (std::strncmp(arg, "--watchdog=", 11) == 0) {
      opts.sinks.watchdog_stall_s = std::atof(arg + 11);
      if (!(opts.sinks.watchdog_stall_s > 0.0)) {
        std::cerr << "--watchdog=<seconds> requires a positive number\n";
        std::exit(2);
      }
    } else if (std::strcmp(arg, "--watchdog-abort") == 0) {
      opts.sinks.watchdog_abort = true;
    } else {
      opts.remaining.push_back(argv[i]);
    }
  }
  if (opts.sinks.watchdog_abort && opts.sinks.watchdog_stall_s <= 0.0) {
    opts.sinks.watchdog_stall_s = kDefaultWatchdogS;
  }
  // Arm the sinks here so every bench target honors the flags without
  // per-target plumbing; the scopes/counters are already in the code.
  if (opts.sinks.profile) prof::set_enabled(true);
  if (opts.sinks.progress || opts.sinks.watchdog_stall_s > 0.0) {
    live::ProgressConfig cfg;
    cfg.target = argv0_basename(argc, argv);
    cfg.interval_ms = opts.sinks.progress_interval_ms;
    if (opts.sinks.progress) {
      if (opts.sinks.heartbeat_path.empty()) {
        opts.sinks.heartbeat_path = cfg.target + ".heartbeat.jsonl";
      }
      cfg.jsonl_path = opts.sinks.heartbeat_path;
    }
    cfg.stderr_line = opts.sinks.progress;
    cfg.stall_after_s = opts.sinks.watchdog_stall_s;
    cfg.abort_on_stall = opts.sinks.watchdog_abort;
    live::start_global_meter(std::move(cfg));
  }
  return opts;
}

void maybe_write_report(BenchReport& report, const BenchOptions& opts) {
  // Stop the live meter first: its final heartbeat closes the stream and
  // the whole-run aggregates become host.* metrics (routed into the
  // record's host half by make_run_record; compare_metrics never judges
  // host.*, so wall-clock throughput is tracked but never gated).
  const live::MeterSummary progress = live::stop_global_meter();
  if (progress.active) {
    const live::HeartbeatAggregates& a = progress.agg;
    report.add_metric("host.progress.heartbeats.count", "count",
                      static_cast<double>(a.records));
    report.add_metric("host.progress.events.total", "count",
                      static_cast<double>(a.events_total));
    report.add_metric("host.progress.events_per_sec.mean", "rate",
                      a.events_per_sec_mean);
    report.add_metric("host.progress.events_per_sec.max", "rate",
                      a.events_per_sec_max);
    report.add_metric("host.progress.units.done", "count",
                      static_cast<double>(a.units_done));
    report.add_metric("host.progress.units.total", "count",
                      static_cast<double>(a.units_total));
    report.add_metric("host.watchdog.stalls.count", "count",
                      static_cast<double>(a.stalls));
    std::cout << "[progress] " << a.records << " heartbeats, "
              << a.events_total << " events in " << a.elapsed_s
              << " s (mean " << a.events_per_sec_mean << " ev/s, max "
              << a.events_per_sec_max << " ev/s), stalls " << a.stalls;
    if (!opts.sinks.heartbeat_path.empty()) {
      std::cout << " -> " << opts.sinks.heartbeat_path;
    }
    std::cout << "\n";
  }
  if (opts.sinks.profile) {
    // One profile section per report: a target that folded its own
    // (hotspot's accounting run) keeps it. The ledger record takes the
    // section from the report's host.prof.* metrics.
    const prof::Profile profile = prof::collect();
    add_profile_metrics(report, profile);
    std::cout << "\n=== host-side hotspots (--profile) ===\n";
    print_profile(std::cout, profile);
  }
  try {
    if (!opts.sinks.json_path.empty()) {
      report.write(opts.sinks.json_path);
      std::cout << "[bench-report] wrote " << report.metric_count()
                << " metrics to " << opts.sinks.json_path << "\n";
    }
    if (!opts.sinks.ledger_path.empty()) {
      // Config fallback when the target attached none: the bench
      // identity. Targets with a real simulation config call
      // report.set_config() and get exact-memoization hashes instead.
      JsonValue config = report.config();
      if (config.is_null()) {
        config = JsonValue::object();
        config.set("schema", "hpcos-config-bench-identity/1");
        config.set("bench", report.bench_name());
        config.set("quick", report.quick());
        config.set("seed", report.seed());
      }
      const JsonValue record =
          make_run_record(report, config, ledger_timestamp());
      append_run_record(opts.sinks.ledger_path, record);
      std::cout << "[run-ledger] appended " << report.bench_name()
                << " (config " << record.at("config_hash").as_string()
                << ") to " << opts.sinks.ledger_path << "\n";
    }
  } catch (const std::exception& e) {
    // An unwritable sink is an I/O error (exit 2), like a bad flag.
    std::cerr << report.bench_name() << ": " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace hpcos::obs
