// trend — cross-run trend tables, regression flags, and drift detection
// over a run ledger (obs/runlog).
//
//   trend --ledger <runs.jsonl> [--target <name>] [--tolerances <policy>]
//         [--openmetrics <path>] [--json <path>] [--quick]
//
// Reads the ledger leniently (damaged lines are skipped and counted,
// never fatal — a crash mid-append must not wedge the trend view), groups
// records by (target, config hash), and renders per-metric history tables
// with ASCII sparklines. Two kinds of flags:
//
//   REGRESSION  newest run vs the median of its prior history, judged by
//               the same tolerance policy file the bench_gate uses
//               (--tolerances; default policy otherwise). Any regression
//               makes the tool exit 1 with the offending metrics named —
//               this is what the trend_gate CI wiring relies on.
//   DRIFT       robust median/MAD changepoint over the whole history:
//               slow creep that no single run trips.
//
// Exports: --json emits a BenchReport (ledger/group/flag counts plus
// per-group last/median metrics; the trend_smoke + trend_gate jobs
// consume it), --openmetrics emits the hpcos_trend exposition.
//
// Exit codes: 0 clean, 1 regressions found, 2 usage/I-O errors.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/explain/explain.h"
#include "obs/runlog.h"
#include "obs/trend.h"

#include "cli_util.h"

namespace {

using namespace hpcos;
using obs::trend::short_hash;

std::string fmt_value(double v) {
  return TextTable::fmt_sci(v, 4);
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = obs::parse_bench_options(argc, argv);
  std::string tolerances_path;
  std::string openmetrics_path;
  std::string target_filter;
  tools::CliArgs cli(
      "usage: trend --ledger <runs.jsonl> [--target <name>]"
      " [--tolerances <policy.json>] [--openmetrics <path>]"
      " [--json <path>] [--quick]");
  cli.add_value("--tolerances", &tolerances_path);
  cli.add_value("--openmetrics", &openmetrics_path);
  cli.add_value("--target", &target_filter);
  if (!cli.parse(opts.remaining)) return 2;
  if (opts.sinks.ledger_path.empty()) {
    std::cerr << "trend: --ledger <runs.jsonl> is required\n";
    return 2;
  }
  // The ledger is this tool's *input*; never append trend's own report
  // record back into it (that would grow the file under CI's feet).
  const std::string ledger_path = opts.sinks.ledger_path;
  opts.sinks.ledger_path.clear();

  try {
    const obs::RunLedger ledger =
        obs::read_run_ledger(ledger_path, /*strict=*/false);
    if (ledger.skipped > 0) {
      std::cout << "trend: skipped " << ledger.skipped
                << " damaged ledger line(s) in " << ledger_path << "\n";
    }
    std::vector<JsonValue> records;
    for (const JsonValue& r : ledger.records) {
      if (target_filter.empty() ||
          r.at("target").as_string() == target_filter) {
        records.push_back(r);
      }
    }
    if (records.empty()) {
      std::cerr << "trend: no usable records in " << ledger_path
                << (target_filter.empty()
                        ? std::string{}
                        : " for target " + target_filter)
                << "\n";
      return 2;
    }

    obs::DiffPolicy policy;
    if (!tolerances_path.empty()) {
      policy = obs::load_tolerance_policy(tolerances_path);
    }

    const auto groups = obs::trend::group_records(records);
    const auto regressions = obs::trend::find_regressions(groups, policy);
    const auto drifts = obs::trend::find_drift(groups);

    print_banner(std::cout, "Run ledger: " + ledger_path);
    TextTable overview({"target", "config", "runs", "metrics"});
    overview.set_align(2, Align::kRight);
    overview.set_align(3, Align::kRight);
    for (const auto& g : groups) {
      overview.add_row({g.target, short_hash(g.config_hash),
                        TextTable::fmt_int(
                            static_cast<long long>(g.records.size())),
                        TextTable::fmt_int(
                            static_cast<long long>(g.metrics.size()))});
    }
    overview.print(std::cout);

    for (const auto& g : groups) {
      print_banner(std::cout, g.target + " @ " + short_hash(g.config_hash) +
                                  " (" + std::to_string(g.records.size()) +
                                  " runs)");
      TextTable table({"metric", "n", "first", "median", "last", "trend"});
      for (std::size_t c = 1; c < 5; ++c) table.set_align(c, Align::kRight);
      for (const auto& m : g.metrics) {
        if (m.values.empty()) continue;
        table.add_row(
            {m.name,
             TextTable::fmt_int(static_cast<long long>(m.values.size())),
             fmt_value(m.values.front()),
             fmt_value(obs::trend::median(m.values)),
             fmt_value(m.values.back()),
             obs::trend::sparkline(m.values)});
      }
      table.print(std::cout);
    }

    if (!drifts.empty()) {
      print_banner(std::cout, "Drift (median/MAD changepoints)");
      TextTable table({"target", "config", "metric", "split", "before",
                       "after", "score"});
      for (std::size_t c = 3; c < 7; ++c) table.set_align(c, Align::kRight);
      for (const auto& d : drifts) {
        table.add_row({d.target, short_hash(d.config_hash), d.metric,
                       TextTable::fmt_int(static_cast<long long>(d.split)),
                       fmt_value(d.before_median), fmt_value(d.after_median),
                       TextTable::fmt(d.score, 1)});
      }
      table.print(std::cout);
    }

    if (!openmetrics_path.empty()) {
      std::ofstream out(openmetrics_path);
      if (!out) {
        std::cerr << "trend: cannot open " << openmetrics_path << "\n";
        return 2;
      }
      out << obs::trend::trend_openmetrics_text(groups);
      std::cout << "trend: OpenMetrics exposition written to "
                << openmetrics_path << "\n";
    }

    obs::BenchReport report("trend", opts.quick);
    report.add_metric("ledger.records.count", "count",
                      static_cast<double>(records.size()));
    report.add_metric("ledger.skipped_lines.count", "count",
                      static_cast<double>(ledger.skipped));
    report.add_metric("ledger.groups.count", "count",
                      static_cast<double>(groups.size()));
    report.add_metric("flags.regressions.count", "count",
                      static_cast<double>(regressions.size()));
    report.add_metric("flags.drifts.count", "count",
                      static_cast<double>(drifts.size()));
    for (const auto& g : groups) {
      const std::string base =
          "group." + g.target + "." + short_hash(g.config_hash);
      report.add_metric(base + ".runs", "count",
                        static_cast<double>(g.records.size()));
      for (const auto& m : g.metrics) {
        if (m.values.empty()) continue;
        report.add_metric(base + "." + m.name + ".last", m.unit,
                          m.values.back());
        report.add_metric(base + "." + m.name + ".median", m.unit,
                          obs::trend::median(m.values));
      }
    }
    obs::maybe_write_report(report, opts);

    if (!regressions.empty()) {
      print_banner(std::cout, "REGRESSIONS (worst first)");
      TextTable table({"target", "config", "metric", "baseline", "current",
                       "rel", "allowed rel", "allowed abs"});
      for (std::size_t c = 3; c < 8; ++c) table.set_align(c, Align::kRight);
      for (const auto& r : regressions) {
        table.add_row({r.target, short_hash(r.config_hash), r.metric,
                       fmt_value(r.baseline), fmt_value(r.current),
                       TextTable::fmt_percent(r.rel_delta),
                       TextTable::fmt_percent(r.tolerance.rel),
                       TextTable::fmt_sci(r.tolerance.abs, 1)});
      }
      table.print(std::cout);
      // Auto-explain the worst flagged group on the same screen: the exact
      // pair find_regressions judged (newest vs median of prior) through
      // the hierarchical differ. Best-effort — a diagnosis failure must not
      // change the gate's verdict.
      try {
        const auto& worst = regressions.front();
        const auto group = std::find_if(
            groups.begin(), groups.end(), [&](const auto& g) {
              return g.target == worst.target &&
                     g.config_hash == worst.config_hash;
            });
        print_banner(std::cout, "Why (worst group, newest vs median)");
        const auto explanation = obs::explain::explain_runs(
            obs::trend::median_of_prior(group->records),
            obs::trend::snapshot_newest(group->records), policy);
        obs::explain::print_explain_summary(std::cout, explanation);
        std::cout << "trend: full drill-down: explain --ledger "
                  << ledger_path << " --target " << worst.target
                  << " --config " << short_hash(worst.config_hash)
                  << (tolerances_path.empty()
                          ? std::string{}
                          : " --tolerances " + tolerances_path)
                  << "\n";
      } catch (const std::exception& e) {
        std::cout << "trend: explanation unavailable: " << e.what()
                  << "\n";
      }
      std::cerr << "trend: FAIL — " << regressions.size()
                << " metric(s) regressed vs ledger history:";
      for (const auto& r : regressions) {
        std::cerr << " " << r.target << "/" << r.metric;
      }
      std::cerr << "\n";
      return 1;
    }
    std::cout << "trend: " << groups.size() << " group(s), no regressions"
              << (drifts.empty()
                      ? std::string{}
                      : " (" + std::to_string(drifts.size()) +
                            " drift flag(s) above)")
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "trend: " << e.what() << "\n";
    return 2;
  }
}
