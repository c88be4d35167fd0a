// Chrome trace_event export for TraceBuffer snapshots.
//
// §4.2.1 of the paper inspects interference with ftrace; the practical
// companion workflow is loading the capture into a timeline viewer. This
// module serializes any set of TraceRecords into the Chrome trace_event
// JSON format (the "JSON Array Format" with an explicit "traceEvents"
// wrapper object), which loads directly in Perfetto / chrome://tracing.
//
// Mapping:
//   - records with duration > 0 become complete events (ph "X"),
//     instantaneous markers become instant events (ph "i")
//   - ts / dur are microseconds (the trace_event unit); SimTime is integer
//     nanoseconds so values may carry a fractional part
//   - pid is a caller-chosen process id (e.g. the node id), tid is the core
//   - span / parent ids and the category name ride in "args" so a loaded
//     trace can be grouped back into operation trees
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "sim/trace.h"

namespace hpcos::sim {

struct ChromeTraceOptions {
  // "pid" stamped on every event; multi-node exports can merge several
  // per-node documents by giving each node a distinct pid.
  std::uint64_t pid = 0;
  // Process name shown in the viewer (emitted as a process_name metadata
  // event when non-empty).
  std::string process_name;
  // Track names keyed by tid (the record's core id, or a synthetic rank
  // track id). Each entry becomes a thread_name metadata event, so e.g.
  // BSP rank timelines show up as "rank 3 @ node 7" instead of a bare
  // core number.
  std::vector<std::pair<std::int64_t, std::string>> thread_names;
};

// One record set plus the pid / naming metadata it should carry in the
// document. Whole-run exports combine several nodes (and synthetic rank
// tracks) into a single Perfetto-loadable file.
struct ChromeTraceGroup {
  std::vector<TraceRecord> records;
  ChromeTraceOptions options;
};

// Build the trace_event document for one or more groups: all metadata
// ("M") events are emitted first, then every group's events globally
// sorted by timestamp (then span id) so `ts` is monotonic in the output,
// across groups too.
JsonValue chrome_trace_document(const std::vector<ChromeTraceGroup>& groups);

// Validate the shape of a trace_event document produced by the exporter:
// "traceEvents" array, required keys per event, monotonically non-decreasing
// "ts" over non-metadata events. Returns "" when valid, else a description
// of the first violation.
std::string validate_chrome_trace(const JsonValue& doc);

}  // namespace hpcos::sim
