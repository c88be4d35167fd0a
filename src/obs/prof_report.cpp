#include "obs/prof_report.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "common/table.h"
#include "obs/prof/counters.h"
#include "obs/prof/mem.h"
#include "sim/folded_stack.h"
#include "sim/span_tree.h"

namespace hpcos::obs {
namespace {

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

prof::Profile prof::collect() {
  const Snapshot snap = snapshot();
  std::vector<sim::TraceRecord> records;
  records.reserve(snap.events.size());
  for (const ScopeEvent& e : snap.events) {
    records.push_back(sim::TraceRecord{
        .time = SimTime::ns(e.start_ns),
        .duration = SimTime::ns(e.end_ns - e.start_ns),
        .label = e.id < snap.names.size() ? snap.names[e.id] : "<unknown>",
        .span = e.span,
        .parent = e.parent});
  }
  const sim::SpanForest forest(records);

  Profile profile;
  profile.threads = snap.threads;
  profile.events = records.size();
  profile.dropped = snap.dropped;
  // Name-keyed: aggregation order does not affect integer sums, and
  // sorted keys make the output deterministic.
  std::map<std::string, ScopeStat> by_name;
  for (std::size_t i = 0; i < records.size(); ++i) {
    ScopeStat& stat = by_name[records[i].label];
    ++stat.count;
    stat.total_ns += records[i].duration.count_ns();
    stat.self_ns += forest.self_time(i).count_ns();
  }
  for (const std::size_t r : forest.roots()) {
    profile.root_total_ns += records[r].duration.count_ns();
  }
  profile.scopes.reserve(by_name.size());
  for (auto& [name, stat] : by_name) {
    stat.name = name;
    profile.scopes.push_back(std::move(stat));
  }
  std::sort(profile.scopes.begin(), profile.scopes.end(),
            [](const ScopeStat& a, const ScopeStat& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  profile.folded = sim::folded_stack(forest);
  return profile;
}

void add_profile_metrics(BenchReport& report, const prof::Profile& profile) {
  if (report.has_metric("host.prof.events")) return;
  for (const prof::ScopeStat& s : profile.scopes) {
    report.add_metric("prof." + s.name + ".count", "count",
                      static_cast<double>(s.count));
    report.add_metric("host.prof." + s.name + ".self_us", "us",
                      to_us(s.self_ns));
    report.add_metric("host.prof." + s.name + ".total_us", "us",
                      to_us(s.total_ns));
  }
  report.add_metric("host.prof.events", "count",
                    static_cast<double>(profile.events));
  report.add_metric("host.prof.threads", "count",
                    static_cast<double>(profile.threads));
  report.add_metric("host.prof.dropped", "count",
                    static_cast<double>(profile.dropped));
  report.add_metric("host.prof.root_total_us", "us",
                    to_us(profile.root_total_ns));
  for (const prof::CounterValue& c :
       prof::host_counter_snapshot().counters) {
    if (!c.name.starts_with("mem.")) continue;
    report.add_metric("host." + c.name,
                      c.name.ends_with(".bytes") ? "bytes" : "count",
                      static_cast<double>(c.value));
  }
  const prof::HostMemory mem = prof::sample_host_memory();
  if (mem.valid) {
    report.add_metric("host.mem.rss_bytes", "bytes",
                      static_cast<double>(mem.rss_bytes));
    report.add_metric("host.mem.peak_rss_bytes", "bytes",
                      static_cast<double>(mem.peak_rss_bytes));
    report.add_metric("host.mem.vm_bytes", "bytes",
                      static_cast<double>(mem.vm_bytes));
  }
}

void print_profile(std::ostream& out, const prof::Profile& profile,
                   std::size_t top) {
  TextTable table({"scope", "count", "self ms", "total ms", "self %"});
  for (std::size_t col = 1; col < 5; ++col) table.set_align(col, Align::kRight);
  const double root =
      profile.root_total_ns > 0 ? static_cast<double>(profile.root_total_ns)
                                : 1.0;
  const std::size_t n = std::min(top, profile.scopes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const prof::ScopeStat& s = profile.scopes[i];
    table.add_row({s.name,
                   TextTable::fmt_int(static_cast<long long>(s.count)),
                   TextTable::fmt(static_cast<double>(s.self_ns) / 1e6, 3),
                   TextTable::fmt(static_cast<double>(s.total_ns) / 1e6, 3),
                   TextTable::fmt_percent(
                       static_cast<double>(s.self_ns) / root, 1)});
  }
  table.print(out);
  out << "scopes: " << profile.scopes.size() << "  events: " << profile.events
      << "  threads: " << profile.threads << "  dropped: " << profile.dropped
      << "  root total: "
      << TextTable::fmt(static_cast<double>(profile.root_total_ns) / 1e6, 3)
      << " ms\n";
}

}  // namespace hpcos::obs
