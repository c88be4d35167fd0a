// Human-readable tables and BenchReport plumbing for the attribution
// ledger and straggler report (consumed by tools/noise_explain).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/attrib/critical_path.h"
#include "obs/attrib/ledger.h"
#include "obs/bench_report.h"

namespace hpcos::obs::attrib {

// Fixed-width tables in the style of the repo's other report printers.
void print_ledger(std::ostream& os, const AttributionLedger& ledger);
void print_straggler_report(std::ostream& os, const StragglerReport& report,
                            std::size_t max_iterations = 8);

// Metric plumbing for --json reports. `prefix` namespaces the metrics
// (e.g. "attrib" -> attrib.total_stolen_us, attrib.reconciliation_error,
// attrib.src.<source>.stolen_us / .share per row; "straggler" ->
// straggler.iterations, straggler.with_noise_wait,
// straggler.src.<source>.iterations / .dominant_us per summary row).
// Metric order follows the (deterministically sorted) rows, so reports
// diff cleanly across runs.
void add_ledger_metrics(BenchReport& report, const AttributionLedger& ledger,
                        const std::string& prefix = "attrib");
void add_straggler_metrics(BenchReport& report,
                           const StragglerReport& straggler,
                           const std::string& prefix = "straggler");

}  // namespace hpcos::obs::attrib
