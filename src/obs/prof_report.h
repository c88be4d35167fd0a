// Reporting glue between the host-side profiler (obs/prof) and the
// repo's observability surfaces: the Profile itself (built here, one
// layer above the std-only recorder, because it needs sim::SpanForest),
// BenchReport JSON and the human-readable hotspot table.
//
// Naming discipline (enforced by compare_metrics): scope *fire counts*
// are a pure function of the simulated work, so they are emitted as plain
// gated metrics (`prof.<scope>.count`); everything measured in host
// nanoseconds is machine-dependent and goes under the never-judged
// `host.*` prefix (`host.prof.*`, `host.mem.*`).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/bench_report.h"
#include "obs/prof/prof.h"

namespace hpcos::obs {

namespace prof {
// Merge every thread buffer (prof::snapshot()) into one Profile. The
// scope events become span records; sim::SpanForest links them (a scope
// whose parent was dropped by a full buffer becomes a root) and supplies
// each scope's self time, and sim::folded_stack renders the flamegraph.
Profile collect();
}  // namespace prof

// The report's profile section — a collected profile, the host-counter
// table's allocation counters and the process RSS sample:
//   prof.<scope>.count            count  (deterministic, gated)
//   host.prof.<scope>.self_us     us     (never judged)
//   host.prof.<scope>.total_us    us
//   host.prof.events / .threads / .dropped / .root_total_us
//   host.mem.<site>.bytes/.events  (table counters mem.<site>.*)
//   host.mem.rss_bytes / .peak_rss_bytes / .vm_bytes
// A report carries at most one such section: a call on a report that
// already has one (host.prof.events present) adds nothing.
void add_profile_metrics(BenchReport& report, const prof::Profile& profile);

// Ranked hotspot table (top `top` scopes by self time) plus the merge
// summary line, in the repo's fixed-width table layout.
void print_profile(std::ostream& out, const prof::Profile& profile,
                   std::size_t top = 20);

}  // namespace hpcos::obs
