#include "obs/runlog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/confighash.h"
#include "common/parallel.h"
#include "obs/bench_report.h"

namespace hpcos::obs {

namespace {

// Sum/count over a BenchReport series entry's non-empty buckets.
void series_totals(const JsonValue& series, double* sum,
                   std::uint64_t* count) {
  *sum = 0.0;
  *count = 0;
  if (const JsonValue* buckets = series.find("buckets");
      buckets != nullptr && buckets->is_array()) {
    for (const JsonValue& b : buckets->as_array()) {
      *sum += b.at("sum").as_number();
      *count += static_cast<std::uint64_t>(b.at("count").as_number());
    }
  }
}

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) || (c >= 'a' && c <= 'f');
  });
}

}  // namespace

JsonValue make_run_record(const BenchReport& report, const JsonValue& config,
                          const std::string& timestamp) {
  JsonValue record = JsonValue::object();
  record.set("schema", kRunLedgerSchema);
  record.set("target", report.bench_name());
  record.set("quick", report.quick());
  record.set("seed", report.seed());
  record.set("config_hash", config_hash_hex(config));
  record.set("config", config);

  JsonValue metrics = JsonValue::array();
  JsonValue host_metrics = JsonValue::array();
  for (const BenchMetric& m : report.metrics()) {
    // host.* names the wall-clock measurements by repo convention
    // (ROADMAP standing constraints); they live in the non-deterministic
    // "host" section so the deterministic line stays bit-stable.
    (is_host_metric(m.name) ? host_metrics : metrics)
        .push_back(metric_to_json(m));
  }
  record.set("metrics", std::move(metrics));

  JsonValue series = JsonValue::array();
  for (const JsonValue& s : report.series_json()) {
    JsonValue entry = JsonValue::object();
    entry.set("name", s.at("name").as_string());
    // The digest pins the full bucket payload without storing it: trend
    // can tell "same series bytes" from "changed" at O(1) ledger size.
    entry.set("digest", to_hex64(fnv1a64(canonical_json(s))));
    double sum = 0.0;
    std::uint64_t count = 0;
    series_totals(s, &sum, &count);
    entry.set("sum", sum);
    entry.set("count", count);
    series.push_back(std::move(entry));
  }
  record.set("series", std::move(series));

  JsonValue host = JsonValue::object();
  host.set("timestamp", timestamp);
  host.set("parallelism", static_cast<std::uint64_t>(default_parallelism()));
  if (!host_metrics.as_array().empty()) {
    host.set("metrics", std::move(host_metrics));
  }
  record.set("host", std::move(host));
  return record;
}

std::string validate_run_record(const JsonValue& record) {
  if (!record.is_object()) return "record is not a JSON object";
  // A heartbeat line in a run-ledger file is a specific, diagnosable
  // mistake (someone pointed --progress-file and --ledger at the same
  // path), so it gets a specific message instead of the generic
  // missing-key one.
  if (const JsonValue* schema = record.find("schema");
      schema != nullptr && schema->is_string() &&
      schema->as_string() == "hpcos-heartbeat/1") {
    return "heartbeat record (hpcos-heartbeat/1) in run ledger — "
           "heartbeats stream to *.heartbeat.jsonl, not to the ledger";
  }
  for (const char* key :
       {"schema", "target", "quick", "seed", "config_hash", "metrics"}) {
    if (!record.contains(key)) {
      return std::string("missing key \"") + key + "\"";
    }
  }
  if (!record.at("schema").is_string()) return "schema is not a string";
  if (record.at("schema").as_string() != kRunLedgerSchema) {
    // Unknown versions are rejected outright: a reader silently accepting
    // a future schema would misinterpret fields, the exact bug a strict
    // version gate exists to prevent.
    return "unknown schema \"" + record.at("schema").as_string() +
           "\" (want \"" + kRunLedgerSchema + "\")";
  }
  if (!record.at("target").is_string() ||
      record.at("target").as_string().empty()) {
    return "target missing or empty";
  }
  if (!record.at("quick").is_bool()) return "quick is not a bool";
  if (!record.at("seed").is_number()) return "seed is not a number";
  if (!record.at("config_hash").is_string() ||
      !is_hex16(record.at("config_hash").as_string())) {
    return "config_hash is not a 16-digit lowercase hex string";
  }
  if (!record.at("metrics").is_array()) return "metrics is not an array";
  const JsonArray& metrics = record.at("metrics").as_array();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const JsonValue& m = metrics[i];
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (!m.is_object()) return where + " is not an object";
    for (const char* key : {"name", "unit", "value"}) {
      if (!m.contains(key)) return where + " missing \"" + key + "\"";
    }
    if (!m.at("value").is_number() ||
        !std::isfinite(m.at("value").as_number())) {
      return where + " value is not a finite number";
    }
  }
  if (const JsonValue* series = record.find("series"); series != nullptr) {
    if (!series->is_array()) return "series is not an array";
    const JsonArray& entries = series->as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const JsonValue& s = entries[i];
      const std::string where = "series[" + std::to_string(i) + "]";
      if (!s.is_object()) return where + " is not an object";
      if (!s.contains("name") || !s.at("name").is_string()) {
        return where + " name missing";
      }
      if (!s.contains("digest") || !s.at("digest").is_string() ||
          !is_hex16(s.at("digest").as_string())) {
        return where + " digest missing or not 16-digit hex";
      }
    }
  }
  if (const JsonValue* host = record.find("host");
      host != nullptr && !host->is_object()) {
    return "host is not an object";
  }
  return {};
}

std::string run_record_line(const JsonValue& record) {
  if (const std::string err = validate_run_record(record); !err.empty()) {
    throw std::runtime_error("run record invalid: " + err);
  }
  return record.dump();
}

void append_run_record(const std::string& path, const JsonValue& record) {
  const std::string line = run_record_line(record) + "\n";
  // O_APPEND + a single write: concurrent appenders interleave at line
  // granularity and a crash can only tear the final line, which the
  // lenient reader skips.
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw std::runtime_error("cannot open run ledger " + path + ": " +
                             std::strerror(errno));
  }
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("write failed for run ledger " + path + ": " +
                               std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
  if (::close(fd) != 0) {
    throw std::runtime_error("close failed for run ledger " + path);
  }
}

RunLedger read_run_ledger(const std::string& path, bool strict) {
  return read_json_lines(path, validate_run_record, strict, "run ledger",
                         "run ledger");
}

}  // namespace hpcos::obs
