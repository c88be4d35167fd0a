// ProgressMeter: heartbeats and a stall watchdog for in-flight runs.
//
// Every other observability layer reports after the run exits; the meter
// is the one that talks while it runs. A dedicated sampling thread wakes
// on a wall-clock timer, takes one snapshot of the host-counter table
// (obs/prof/counters.h: the live.* feed the DES loop, FWQ campaigns and
// bench plan drivers write, and the scheduler's parallel.* health) plus
// the profiler/procfs gauges, and
//
//   * emits one hpcos-heartbeat/1 JSON line per interval to an optional
//     *.heartbeat.jsonl stream and/or an ASCII line to stderr, and
//   * when armed, watches for stalls: if the progress signature (events,
//     completed units, simulated time) stops changing for stall_after_s
//     wall seconds, it emits a "stall" heartbeat, dumps a diagnostic
//     snapshot — DES queue depth/max, the host-counter table (with the
//     scheduler's parallel.backlog), top profile scopes, RSS/VmHWM —
//     and can abort the process
//     with a nonzero exit so a CI hang becomes a diagnosable failure
//     instead of a timeout.
//
// Invariants (DESIGN §9):
//   * The meter is an observer, never a participant: it only reads
//     relaxed atomics and procfs. Enabling it must not change any
//     deterministic output — reports with and without --progress are
//     bit-identical.
//   * Everything it emits is host telemetry. Its aggregates enter the
//     run ledger only under host.progress.* / host.watchdog.*, which
//     the trend and gate judgment (compare_metrics) never judges.
//   * Stall abort uses std::_Exit: the watchdog fires on a wedged
//     process, and running destructors from the meter thread while the
//     wedged threads hold locks would trade a diagnosable hang for an
//     undiagnosable crash.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/live/heartbeat.h"

namespace hpcos::obs::live {

// Exit code when the watchdog aborts a stalled process (EX_SOFTWARE
// family; distinct from test-failure exits so CI can tell them apart).
inline constexpr int kStallExitCode = 70;

struct ProgressConfig {
  std::string target = "unknown";
  int interval_ms = 1000;    // heartbeat cadence (clamped to >= 10)
  std::string jsonl_path;    // empty: no file stream
  bool stderr_line = true;   // ASCII heartbeat on stderr
  double stall_after_s = 0.0;  // 0: watchdog disarmed
  bool abort_on_stall = false;
  // Where stall snapshots go. Default (unset): stderr. Tests inject a
  // capture function to assert on snapshot content.
  std::function<void(const std::string&)> stall_sink;
};

// What stop() hands back to maybe_write_report for ledger folding.
struct MeterSummary {
  bool active = false;  // false: no meter ran (flags absent)
  HeartbeatAggregates agg;
};

// The diagnostic snapshot the watchdog dumps, exposed so tests (and the
// hotspot CLI) can render one without waiting for a real stall.
std::string build_stall_snapshot(const Heartbeat& hb, double stalled_for_s);

class ProgressMeter {
 public:
  explicit ProgressMeter(ProgressConfig cfg);
  ~ProgressMeter();  // stops the thread if still running (discards summary)

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  // Zero the live.* counters, arm the live feed, open the stream, launch
  // the sampler.
  void start();
  // Join the sampler, emit the "final" heartbeat, disarm the feed, return
  // whole-run aggregates. Idempotent; returns {active=false} if start()
  // never ran.
  MeterSummary stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Process-global meter used by the shared bench plumbing:
// parse_bench_options starts it when --progress/--watchdog are present;
// maybe_write_report stops it and folds the summary into the report.
void start_global_meter(ProgressConfig cfg);
MeterSummary stop_global_meter();

}  // namespace hpcos::obs::live
