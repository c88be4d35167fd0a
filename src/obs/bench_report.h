// Machine-readable benchmark results (the BENCH_*.json trajectory format).
//
// Every bench target (bench_fig*, bench_table*, bench_ablation*,
// bench_isolation) keeps its human-readable tables on stdout and
// additionally emits one BenchReport JSON document behind `--json <path>`.
// The schema is deliberately small and stable so CI can regression-track
// any metric across PRs:
//
//   {
//     "schema":  "hpcos-bench-report/1",
//     "bench":   "<target name>",
//     "quick":   <bool>,               // --quick smoke mode?
//     "seed":    <number>,             // 0 when the bench is seedless
//     "platform": { "host_parallelism": <number> },
//     "metrics": [
//       { "name": "<dotted.metric.name>", "unit": "<unit>",
//         "value": <finite number>,
//         "percentiles": { "p50": ..., "p99": ... }   // optional
//       }, ...
//     ]
//   }
//
// Validation (bench_smoke ctest job, tests/test_obs.cpp): required keys
// present, schema string matches, metrics non-empty, every value finite,
// no name repeated after percentile flattening (see flatten_metric).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace hpcos::obs {

namespace ts {
class TimeSeries;
}  // namespace ts

inline constexpr const char* kBenchReportSchema = "hpcos-bench-report/1";

struct BenchMetric {
  std::string name;
  std::string unit;  // "ratio", "us", "ms", "count", "percent", ...
  double value = 0.0;
  // Optional percentile map ("p50" -> value); empty when not applicable.
  std::map<std::string, double> percentiles;
};

// One metric entry as JSON: {name, unit, value, percentiles?}. The report
// and the run ledger (obs/runlog) share this layout.
JsonValue metric_to_json(const BenchMetric& m);

// host.* names the wall-clock and host-dependent measurements by repo
// convention: tracked, never gated.
bool is_host_metric(const std::string& name);

// One flattened metric. A JSON metric entry flattens to its base value
// under its own name plus one "<name>.<pN>" entry per percentile — the
// one name space bench_diff, trend and explain compare in.
struct FlatMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
void flatten_metric(const JsonValue& entry, std::vector<FlatMetric>* out);

class BenchReport {
 public:
  BenchReport(std::string bench_name, bool quick, std::uint64_t seed = 0);

  void add_metric(const std::string& name, const std::string& unit,
                  double value);
  void add_metric(BenchMetric metric);

  // Attach a streaming series dump under the optional top-level "series"
  // array: {name, unit, resolution_us, coarsens, buckets:[{t_us, min, max,
  // sum, count}, ...]} with empty buckets elided. The bench_diff gate
  // compares only "metrics", so series are informational (plot fodder),
  // never regression-gated.
  void add_series(const std::string& name, const std::string& unit,
                  const ts::TimeSeries& series);

  // Attach the canonical config document (cluster/config_json.h) that
  // produced this run. The run ledger (obs/runlog) keys the record by its
  // confighash; when no config is attached, maybe_write_report falls back
  // to the bench identity (name, quick, seed) so every target still
  // ledgers without per-target plumbing.
  void set_config(JsonValue config) { config_ = std::move(config); }
  // Null when no config was attached.
  const JsonValue& config() const { return config_; }

  const std::string& bench_name() const { return bench_name_; }
  bool quick() const { return quick_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<BenchMetric>& metrics() const { return metrics_; }
  // The JSON series entries exactly as to_json() emits them (runlog
  // digests these).
  const std::vector<JsonValue>& series_json() const { return series_; }

  std::size_t metric_count() const { return metrics_.size(); }
  bool has_metric(const std::string& name) const;
  std::size_t series_count() const { return series_.size(); }

  JsonValue to_json() const;
  // Write the pretty-printed document; throws std::runtime_error on I/O
  // failure.
  void write(const std::string& path) const;

 private:
  std::string bench_name_;
  bool quick_ = false;
  std::uint64_t seed_ = 0;
  JsonValue config_;  // null unless set_config was called
  std::vector<BenchMetric> metrics_;
  std::vector<JsonValue> series_;
};

// Schema validation of a parsed report. Returns an empty string when the
// document is valid; otherwise a one-line description of the first
// violation (missing key, wrong schema, empty metrics, non-finite value,
// a flattened name that repeats).
std::string validate_bench_report(const JsonValue& doc);

// Where a bench run's results and telemetry flow — every output sink the
// shared flag plumbing controls, in one struct so parse_bench_options
// fills it and maybe_write_report consumes it without each target (or
// each new sink) threading more fields through BenchOptions.
struct BenchSinks {
  // --profile: host-side self-profiler (obs/prof). maybe_write_report
  // appends the collected hotspot metrics (prof.*.count gated,
  // host.prof.* / host.mem.* never judged) and prints the ranked table.
  bool profile = false;
  // --json <path>: write the BenchReport document there.
  std::string json_path;
  // --ledger <path>: append one run record (obs/runlog) — config hash,
  // metric snapshot, series digests, host.* metrics.
  std::string ledger_path;
  // --progress[=interval_ms]: run a live ProgressMeter (obs/live) for
  // the duration of the target — heartbeat JSONL stream plus an ASCII
  // line per tick on stderr; final aggregates land in the report under
  // host.progress.* (never judged by the gate or trend).
  bool progress = false;
  int progress_interval_ms = 1000;
  // --progress-file <path>: heartbeat stream destination. Defaults to
  // "<argv0 basename>.heartbeat.jsonl" in the working directory (the
  // pattern is gitignored).
  std::string heartbeat_path;
  // --watchdog[=seconds]: arm the stall watchdog (implies --progress
  // machinery); when event progress halts this long, dump a diagnostic
  // snapshot to stderr. Default threshold 30 s.
  double watchdog_stall_s = 0.0;
  // --watchdog-abort: escalate a detected stall to std::_Exit(70) so CI
  // hangs become diagnosable failures instead of timeouts.
  bool watchdog_abort = false;
};

// Shared bench-target command line: every bench main() calls this first.
//   --quick                  shrink the run for the bench_smoke ctest job
//   --json/--profile/--ledger/--progress[=ms]/--progress-file/
//   --watchdog[=s]/--watchdog-abort   -> see BenchSinks
// All sinks are handled entirely in parse_bench_options (arming) and
// maybe_write_report (draining), so every bench target and analysis CLI
// gets them with zero per-target plumbing. Unknown arguments are left
// for the target to interpret (the google-benchmark ablations forward
// the remainder to benchmark::Initialize).
struct BenchOptions {
  bool quick = false;
  BenchSinks sinks;
  // argv with the recognized flags removed (argv[0] preserved).
  std::vector<char*> remaining;
};
BenchOptions parse_bench_options(int argc, char** argv);

// Drain the sinks: stop the progress meter (folding host.progress.* /
// host.watchdog.* aggregates into the report), append the profiler
// section, write the JSON report, append the ledger record. No-op for
// sinks that weren't requested. Non-const: sink sections are appended
// here so every bench target gets them without per-target plumbing. A
// report or ledger path that cannot be written prints "<bench>: <error>"
// and exits 2, the usage/I/O code.
void maybe_write_report(BenchReport& report, const BenchOptions& opts);

}  // namespace hpcos::obs
