// The hpcos-heartbeat/1 record: one line of a live progress stream.
//
// A ProgressMeter (obs/live/live.h) samples the host-counter table on a
// wall-clock timer and appends one self-contained JSON line per tick to a
// *.heartbeat.jsonl stream (plus an ASCII line on stderr). The schema is
// deliberately flat and small — a tail -f consumer, the `live` CLI, or a
// future campaign daemon can parse any line in isolation:
//
//   {
//     "schema": "hpcos-heartbeat/1",
//     "target": "bench_fig4_fwq_cdf",
//     "kind": "tick" | "stall" | "final",
//     "seq": 3,                      // tick index, 0-based
//     "t_ms": 3001.2,                // wall time since meter start
//     "events": 123456789,           // cumulative live events
//     "events_per_sec": 41152.0,     // delta rate over the last interval
//     "sim_time_us": 3.6e9,          // furthest simulated-time position
//     "units_done": 42, "units_total": 160,
//     "eta_s": 34.2,                 // 0 when units_total is unknown
//     "des": { "depth": 12, "max_depth": 96 },
//     "sched": { "chunks": 880, "steals": 41, "parks": 7, "max_depth": 3 },
//     "rss_bytes": 221249536, "peak_rss_bytes": 234881024,
//     "stalls": 0                    // watchdog episodes so far
//   }
//
// "sched" carries the scheduler's host counters (common/parallel.h):
// parallel.chunks, .steals and .parks, and as max_depth
// parallel.max_backlog, the largest unclaimed-chunk backlog any dispatch
// left. Integer fields are at most 2^53, and "des" and "sched" must carry
// every key shown.
//
// Heartbeats are HOST telemetry by definition (wall-clock rates, RSS):
// they never enter the deterministic half of any record, and a heartbeat
// line in a *run-ledger* file is a hard, specifically-worded error in the
// strict ledger parser (obs/runlog) — the two streams must not mix.
//
// Like the ledger, the stream is append-only at line granularity, the
// strict parser hard-fails with line numbers, and the lenient parser
// skips-and-counts (a heartbeat file torn by the very hang the watchdog
// diagnosed must still be analyzable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace hpcos::obs::live {

inline constexpr const char* kHeartbeatSchema = "hpcos-heartbeat/1";

// One sampled heartbeat, host-side units throughout.
struct Heartbeat {
  std::string target;
  std::string kind = "tick";  // "tick" | "stall" | "final"
  std::uint64_t seq = 0;
  double t_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double sim_time_us = 0.0;
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
  double eta_s = 0.0;
  std::size_t des_depth = 0;
  std::size_t des_max_depth = 0;
  std::uint64_t sched_chunks = 0;
  std::uint64_t sched_steals = 0;
  std::uint64_t sched_parks = 0;
  std::uint64_t sched_max_depth = 0;
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t stalls = 0;
};

JsonValue heartbeat_to_json(const Heartbeat& hb);

// Schema validation. Returns "" when valid, else a one-line description
// of the first violation.
std::string validate_heartbeat_record(const JsonValue& record);

// The record as one stream line (no trailing newline). Throws when the
// record fails validation.
std::string heartbeat_line(const JsonValue& record);

// One human-readable stderr line (the "watch it run" rendering):
//   [hb bench_fig4] 12.0s ev=41.3M (3.44M/s) sim=12.50s units 42/160
//   eta 33s rss 211MiB
std::string heartbeat_ascii(const Heartbeat& hb);

// Records in file order (common/json JSON-lines reader).
using HeartbeatLog = JsonLines;

// Read + parse a heartbeat file (validate_heartbeat_record per line).
// Strict mode throws on the first malformed line or unknown schema
// ("heartbeat line N: ...") and on a missing file; lenient mode skips and
// counts damaged lines, and reads a missing file as an empty log.
HeartbeatLog read_heartbeat_log(const std::string& path, bool strict = true);

// Whole-stream aggregates — what maybe_write_report folds into the run
// ledger (host.progress.*) and what the `live` CLI reports.
struct HeartbeatAggregates {
  std::uint64_t records = 0;     // all kinds
  std::uint64_t ticks = 0;       // kind == "tick"
  std::uint64_t stalls = 0;      // max "stalls" field seen
  std::uint64_t events_total = 0;
  double elapsed_s = 0.0;        // last t_ms
  double events_per_sec_mean = 0.0;  // events_total / elapsed
  double events_per_sec_max = 0.0;   // max per-tick rate
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
  std::uint64_t peak_rss_bytes = 0;
};
// Fold one validated record into `agg`. aggregate_heartbeats folds a whole
// stream; the ProgressMeter folds each record as it writes it, so its
// summary equals aggregate_heartbeats over the stream it wrote.
void fold_heartbeat(HeartbeatAggregates& agg, const JsonValue& record);
HeartbeatAggregates aggregate_heartbeats(const std::vector<JsonValue>& records);

}  // namespace hpcos::obs::live
