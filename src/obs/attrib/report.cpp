#include "obs/attrib/report.h"

#include <iomanip>
#include <ostream>

namespace hpcos::obs::attrib {
namespace {

const char* scope_name(noise::SourceScope scope) {
  switch (scope) {
    case noise::SourceScope::kPerCore:
      return "per-core";
    case noise::SourceScope::kPerNodeRandomCore:
      return "per-node";
    case noise::SourceScope::kAllCores:
      return "all-cores";
  }
  return "?";
}

}  // namespace

void print_ledger(std::ostream& os, const AttributionLedger& ledger) {
  os << "  " << std::left << std::setw(16) << "source" << std::right
     << std::setw(10) << "scope" << std::setw(14) << "stolen(us)"
     << std::setw(12) << "share" << std::setw(14) << "expected(us)"
     << std::setw(10) << "diverg" << std::setw(12) << "hits"
     << std::setw(12) << "worst(us)" << '\n';
  for (const auto& row : ledger.rows) {
    os << "  " << std::left << std::setw(16) << row.source << std::right
       << std::setw(10) << scope_name(row.scope) << std::fixed
       << std::setprecision(1) << std::setw(14) << row.stolen_us
       << std::setprecision(4) << std::setw(12) << row.share
       << std::setprecision(1) << std::setw(14) << row.expected_us
       << std::showpos << std::setprecision(2) << std::setw(10)
       << row.divergence << std::noshowpos << std::setw(12)
       << row.hit_iterations << std::setprecision(1) << std::setw(12)
       << row.worst_us << (row.flagged ? "  <-- diverges" : "") << '\n';
  }
  os << "  total stolen " << std::fixed << std::setprecision(1)
     << ledger.total_stolen_us << " us; Eq.2 implies "
     << ledger.stats_overhead_us << " us (rel err " << std::scientific
     << std::setprecision(2) << ledger.reconciliation_error << ")\n"
     << std::defaultfloat;
}

void print_straggler_report(std::ostream& os, const StragglerReport& report,
                            std::size_t max_iterations) {
  os << "  tracks " << report.tracks << ", iterations "
     << report.iterations.size() << ", dominant source "
     << (report.dominant_source.empty() ? "(none)"
                                        : report.dominant_source)
     << '\n';
  os << "  " << std::right << std::setw(6) << "iter" << std::setw(7)
     << "track" << std::setw(12) << "time(us)" << std::setw(12)
     << "excess(us)" << std::setw(12) << "wait(us)" << "  cause" << '\n';
  std::size_t shown = 0;
  for (const auto& it : report.iterations) {
    if (shown++ == max_iterations) {
      os << "  ... " << report.iterations.size() - max_iterations
         << " more iterations\n";
      break;
    }
    os << "  " << std::setw(6) << it.iteration << std::setw(7) << it.track
       << std::fixed << std::setprecision(1) << std::setw(12)
       << it.duration_us << std::setw(12) << it.excess_us << std::setw(12)
       << it.noise_wait_us << "  "
       << (it.dominant_source.empty() ? "(quiet)" : it.dominant_source)
       << '\n';
    for (const auto& ev : it.overlay) {
      os << "          overlay: " << std::left << std::setw(22) << ev.label
         << std::right << " core " << std::setw(3) << ev.core << "  "
         << std::setw(10) << ev.duration.to_us() << " us @ "
         << ev.time.to_us() << " us\n";
    }
  }
  for (const auto& s : report.by_source) {
    os << "  source " << std::left << std::setw(16) << s.source
       << std::right << " dominated " << std::setw(4) << s.iterations
       << " iterations, " << std::fixed << std::setprecision(1)
       << s.dominant_us << " us of events, " << s.excess_us
       << " us straggler excess\n";
  }
  os << std::defaultfloat;
}

void add_ledger_metrics(BenchReport& report, const AttributionLedger& ledger,
                        const std::string& prefix) {
  report.add_metric(prefix + ".total_stolen_us", "us",
                    ledger.total_stolen_us);
  report.add_metric(prefix + ".stats_overhead_us", "us",
                    ledger.stats_overhead_us);
  report.add_metric(prefix + ".reconciliation_error", "ratio",
                    ledger.reconciliation_error);
  report.add_metric(prefix + ".sources", "count",
                    static_cast<double>(ledger.rows.size()));
  for (const auto& row : ledger.rows) {
    const std::string base = prefix + ".src." + row.source;
    report.add_metric(base + ".stolen_us", "us", row.stolen_us);
    report.add_metric(base + ".share", "ratio", row.share);
    report.add_metric(base + ".hits", "count",
                      static_cast<double>(row.hit_iterations));
  }
}

void add_straggler_metrics(BenchReport& report,
                           const StragglerReport& straggler,
                           const std::string& prefix) {
  report.add_metric(prefix + ".tracks", "count",
                    static_cast<double>(straggler.tracks));
  report.add_metric(prefix + ".iterations", "count",
                    static_cast<double>(straggler.iterations.size()));
  std::uint64_t with_wait = 0;
  double excess_us = 0.0;
  for (const auto& it : straggler.iterations) {
    if (!it.dominant_source.empty()) ++with_wait;
    excess_us += it.excess_us;
  }
  report.add_metric(prefix + ".with_noise_wait", "count",
                    static_cast<double>(with_wait));
  report.add_metric(prefix + ".excess_us", "us", excess_us);
  for (const auto& s : straggler.by_source) {
    const std::string base = prefix + ".src." + s.source;
    report.add_metric(base + ".iterations", "count",
                      static_cast<double>(s.iterations));
    report.add_metric(base + ".dominant_us", "us", s.dominant_us);
  }
}

}  // namespace hpcos::obs::attrib
