// explain — hierarchical root-cause diff of two runs (obs/explain).
//
//   explain --base <report.json> --current <report.json>
//           [--tolerances <policy.json>] [--json <path>] [--quick]
//   explain --ledger <runs.jsonl> --target <name> [--config <prefix>]
//           [--tolerances <policy.json>] [--json <path>] [--quick]
//   explain --ledger <cur.jsonl> --base-ledger <base.jsonl>
//           --target <name> [--config <prefix>] [--base-config <prefix>]
//           [--base-target <name>] ...
//
// Three ways to pick the pair:
//   * --base/--current       two BenchReport JSON documents.
//   * --ledger + --target    the target's newest ledger record vs the
//                            median of its prior history — the exact
//                            baseline tools/trend judges, so the
//                            explanation lines up with the trend flag.
//   * + --base-ledger        newest record of the base ledger's group vs
//                            newest of the current ledger's group (e.g.
//                            two CI branches, two machines).
//
// The report walks four layers — canonical config knob diff, ranked
// metric deltas under the gate's tolerance policy, per-source attribution
// deltas (reconciled against the total), and span self-time/quantile
// shifts — and folds them into one ranked cause list; the headline prints
// as a stable "explain: top cause: ..." line CI can grep.
//
// Exit codes: 0 explanation produced (even for a regressed pair — gating
// is bench_diff/trend's job), 2 usage or I/O errors.
#include <iostream>
#include <string>
#include <vector>

#include "obs/bench_diff.h"
#include "obs/bench_report.h"
#include "obs/explain/explain.h"
#include "obs/runlog.h"
#include "obs/trend.h"

#include "cli_util.h"

namespace {

using namespace hpcos;
namespace ex = obs::explain;
namespace trend = obs::trend;

// Lenient ledger read (trend's policy: torn lines are skipped and
// counted, never fatal) + group selection, with tool-prefixed errors.
bool load_group(const std::string& ledger_path, const std::string& target,
                const std::string& hash_prefix,
                std::vector<JsonValue>* group) {
  const obs::RunLedger ledger =
      obs::read_run_ledger(ledger_path, /*strict=*/false);
  if (ledger.skipped > 0) {
    std::cout << "explain: skipped " << ledger.skipped
              << " damaged ledger line(s) in " << ledger_path << "\n";
  }
  if (const std::string err =
          trend::select_group(ledger.records, target, hash_prefix, group);
      !err.empty()) {
    std::cerr << "explain: " << ledger_path << ": " << err << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = obs::parse_bench_options(argc, argv);
  std::string base_path;
  std::string current_path;
  std::string base_ledger_path;
  std::string target;
  std::string base_target;
  std::string hash_prefix;
  std::string base_hash_prefix;
  std::string tolerances_path;
  tools::CliArgs cli(
      "usage: explain --base <report.json> --current <report.json>\n"
      "       explain --ledger <runs.jsonl> --target <name>"
      " [--config <prefix>]\n"
      "       explain --ledger <cur.jsonl> --base-ledger <base.jsonl>"
      " --target <name>\n"
      "       [--base-target <name>] [--base-config <prefix>]"
      " [--tolerances <policy.json>] [--json <path>] [--quick]");
  cli.add_value("--base", &base_path);
  cli.add_value("--current", &current_path);
  cli.add_value("--base-ledger", &base_ledger_path);
  cli.add_value("--target", &target);
  cli.add_value("--base-target", &base_target);
  cli.add_value("--config", &hash_prefix);
  cli.add_value("--base-config", &base_hash_prefix);
  cli.add_value("--tolerances", &tolerances_path);
  if (!cli.parse(opts.remaining)) return 2;

  // As in trend, --ledger names this tool's *input*; never append the
  // explainer's own report record back into the ledger under study.
  const std::string ledger_path = opts.sinks.ledger_path;
  opts.sinks.ledger_path.clear();

  const bool report_mode = !base_path.empty() || !current_path.empty();
  const bool ledger_mode = !ledger_path.empty();
  if (report_mode == ledger_mode) {
    std::cerr << "explain: pick one mode — either --base/--current report"
                 " files or --ledger (see --help usage)\n";
    return 2;
  }

  try {
    trend::RunSnapshot base;
    trend::RunSnapshot current;
    if (report_mode) {
      if (base_path.empty() || current_path.empty()) {
        std::cerr << "explain: report mode needs both --base and"
                     " --current\n";
        return 2;
      }
      base = trend::snapshot_from_report(obs::load_json_file(base_path),
                                         base_path);
      current = trend::snapshot_from_report(
          obs::load_json_file(current_path), current_path);
    } else {
      if (target.empty()) {
        std::cerr << "explain: ledger mode needs --target <name>\n";
        return 2;
      }
      std::vector<JsonValue> group;
      if (!load_group(ledger_path, target, hash_prefix, &group)) return 2;
      if (!base_ledger_path.empty()) {
        // Two-ledger mode: newest of each group.
        std::vector<JsonValue> base_group;
        if (!load_group(base_ledger_path,
                        base_target.empty() ? target : base_target,
                        base_hash_prefix.empty() ? hash_prefix
                                                 : base_hash_prefix,
                        &base_group)) {
          return 2;
        }
        base = trend::snapshot_newest(base_group);
        base.label += " (" + base_ledger_path + ")";
        current = trend::snapshot_newest(group);
        current.label += " (" + ledger_path + ")";
      } else {
        // Trend-aligned mode: newest vs median of prior history.
        base = trend::median_of_prior(group);
        current = trend::snapshot_newest(group);
      }
    }

    obs::DiffPolicy policy;
    if (!tolerances_path.empty()) {
      policy = obs::load_tolerance_policy(tolerances_path);
    }

    const ex::ExplainReport result =
        ex::explain_runs(std::move(base), std::move(current), policy);
    ex::print_explain(std::cout, result);

    obs::BenchReport report("explain", opts.quick);
    ex::add_explain_metrics(report, result);
    obs::maybe_write_report(report, opts);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "explain: " << e.what() << "\n";
    return 2;
  }
}
