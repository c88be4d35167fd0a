// noise_timeline — the paper's timeline views, streamed, not replayed.
//
// Figure 3 shows per-countermeasure noise over a run on one node; Figure 4
// profiles OS noise across the full machine. This tool drives the
// streaming telemetry layer (obs/timeseries + common/histogram) end to
// end:
//
//  1. runs a seeded machine-scale FWQ campaign with the timeline enabled
//     and reconciles every per-source series total against the
//     attribution ledger (Eq. 2 stats) — the totals must agree to <1e-9
//     relative error or the tool exits non-zero,
//  2. renders the Fig. 3 analogue: per-source overhead over virtual time
//     as an ASCII plot, with tail quantiles from the per-source
//     histograms,
//  3. renders the Fig. 4 analogue: a node x time overhead heatmap
//     downsampled to a fixed grid at ingest,
//  4. boots a DES multi-kernel node and turns periodic Registry snapshot
//     deltas into linux.*/lwk.* counter-rate series (both kernels'
//     interrupt_ns counters — the per-kernel noise-rate timeline),
//  5. exports everything: OpenMetrics exposition (--openmetrics <path>),
//     BenchReport JSON with per-source metrics and full series dumps
//     (--json <path>; the timeline_smoke/timeline_gate ctest jobs consume
//     this).
//
// Flags: --quick (smaller campaign), --json <path>, --openmetrics <path>.
// Exit 1 when the reconciliation fails, 2 when an output path cannot be
// written.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/config_json.h"
#include "cluster/fwq_campaign.h"
#include "cluster/node.h"
#include "common/ascii_plot.h"
#include "common/table.h"
#include "hw/platform.h"
#include "linuxk/config.h"
#include "mckernel/mckernel.h"
#include "noise/fwq.h"
#include "noise/profiles.h"
#include "obs/attrib/ledger.h"
#include "obs/bench_report.h"
#include "obs/timeseries/openmetrics.h"
#include "obs/timeseries/timeseries.h"

#include "cli_util.h"

namespace {

using namespace hpcos;

double relative_difference(double a, double b) {
  const double diff = std::abs(a - b);
  if (diff == 0.0) return 0.0;
  return diff / std::max(std::abs(a), std::abs(b));
}

// Fig. 4 glyph ramp, quietest to loudest.
constexpr const char* kHeatRamp = " .:-=+*#%@";

void print_heatmap(std::ostream& os, const obs::ts::NodeTimeGrid& grid) {
  const double max_cell = grid.max_cell();
  os << "  node bins (rows, first node id) x time bins (cols, "
     << grid.duration().to_sec() / static_cast<double>(grid.cols())
     << " s each); cell = overhead us, max " << TextTable::fmt(max_cell, 1)
     << " us\n";
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    os << "  " << TextTable::fmt_int(grid.row_first_node(r));
    os << " |";
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      const double v = grid.cell(r, c);
      std::size_t level = 0;
      if (max_cell > 0.0 && v > 0.0) {
        level = static_cast<std::size_t>(v / max_cell * 9.0);
        level = std::min<std::size_t>(level + 1, 9);
      }
      os << kHeatRamp[level];
    }
    os << "|\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();
  auto opts = obs::parse_bench_options(argc, argv);
  std::string openmetrics_path;
  tools::CliArgs cli(
      "usage: noise_timeline [--quick] [--json <path>] [--ledger <path>]"
      " [--openmetrics <path>] [--progress[=ms]] [--watchdog[=s]]");
  cli.add_value("--openmetrics", &openmetrics_path);
  if (!cli.parse(opts.remaining)) return 2;

  const Seed seed{2025};
  obs::BenchReport report("noise_timeline", opts.quick, seed.value);

  // ---- 1. campaign with the streaming timeline on ----------------------
  const auto profile = noise::fugaku_linux_profile();
  cluster::FwqCampaignConfig config;
  config.nodes = opts.quick ? 96 : 1024;
  config.app_cores = 48;
  config.work_quantum = SimTime::from_ms(6.5);
  config.duration_per_core = opts.quick ? SimTime::sec(60) : SimTime::sec(600);
  config.seed = seed;
  config.timeline = true;
  // Ledger identity: the campaign config itself (semantic knobs only —
  // host thread count never reaches the hash).
  report.set_config(cluster::to_config_json(config));
  const auto campaign = cluster::run_fwq_campaign(profile, config);
  const auto ledger = obs::attrib::build_ledger(campaign, profile, config);
  const auto& timeline = campaign.timeline;

  // Reconciliation: each series' total must reproduce the ledger slot it
  // mirrors (same overhead terms, different association — shard-order
  // merge on both sides keeps the difference at fp-reassociation level).
  print_banner(std::cout,
               "Timeline reconciliation: " + profile.name + " campaign (" +
                   std::to_string(config.nodes) + " nodes x " +
                   std::to_string(config.app_cores) + " cores)");
  TextTable recon({"source", "ledger stolen (us)", "series sum (us)",
                   "rel err", "p99 (us)", "buckets"});
  for (std::size_t c = 1; c < 5; ++c) recon.set_align(c, Align::kRight);
  double max_rel_err = 0.0;
  for (std::size_t i = 0; i < campaign.per_source.size(); ++i) {
    const auto& src = campaign.per_source[i];
    const double series_sum = timeline.per_source[i].total_sum();
    const double rel = relative_difference(src.stolen_us, series_sum);
    max_rel_err = std::max(max_rel_err, rel);
    recon.add_row({src.source, TextTable::fmt(src.stolen_us, 1),
                   TextTable::fmt(series_sum, 1), TextTable::fmt_sci(rel, 2),
                   TextTable::fmt(timeline.sketches[i].quantile(0.99), 1),
                   TextTable::fmt_int(static_cast<long long>(
                       timeline.per_source[i].bucket_count()))});
  }
  recon.print(std::cout);
  std::cout << "  max per-source relative error " << max_rel_err
            << " (bound 1e-9), ledger Eq. 2 reconciliation error "
            << ledger.reconciliation_error << "\n";
  if (max_rel_err >= 1e-9) {
    std::cerr << "noise_timeline: FAIL — series totals diverge from the "
                 "attribution ledger (max rel err "
              << max_rel_err << " >= 1e-9)\n";
    return 1;
  }

  // ---- 2. Fig. 3 analogue: per-source overhead over virtual time -------
  print_banner(std::cout,
               "Per-source noise timeline (overhead us per bucket, " +
                   std::to_string(timeline.per_source.front().resolution()
                                      .to_sec()) +
                   " s buckets)");
  // Top sources by stolen time, jitter floor excluded (it would flatten
  // the scale; its magnitude is in the table above).
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i + 1 < campaign.per_source.size(); ++i) {
    order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return campaign.per_source[a].stolen_us > campaign.per_source[b].stolen_us;
  });
  const char glyphs[] = {'*', '+', 'o', 'x', '#'};
  std::vector<PlotSeries> plot;
  for (std::size_t k = 0; k < order.size() && k < 4; ++k) {
    const std::size_t i = order[k];
    if (campaign.per_source[i].stolen_us <= 0.0) continue;
    const auto& series = timeline.per_source[i];
    PlotSeries ps;
    ps.label = campaign.per_source[i].source;
    ps.glyph = glyphs[k % sizeof(glyphs)];
    for (std::size_t b = 0; b < series.bucket_count(); ++b) {
      const double mid = series.bucket_start(b).to_sec() +
                         series.resolution().to_sec() / 2.0;
      ps.points.emplace_back(mid, series.bucket(b).sum);
    }
    plot.push_back(std::move(ps));
  }
  PlotOptions plot_opts;
  plot_opts.width = 72;
  plot_opts.height = 16;
  plot_opts.x_label = "virtual time (s)";
  plot_opts.y_label = "overhead (us/bucket)";
  ascii_plot(std::cout, plot, plot_opts);

  // ---- 3. Fig. 4 analogue: node x time heatmap -------------------------
  print_banner(std::cout, "Full-machine noise heatmap (Fig. 4 analogue)");
  print_heatmap(std::cout, timeline.heatmap);

  // ---- 4. DES node: registry deltas as per-kernel series ---------------
  // A multi-kernel node registers both kernels' counters (linux.* and
  // lwk.*) into one registry; the sampler turns periodic snapshot deltas
  // into counter-rate series — the per-kernel interrupt_ns timeline.
  const auto platform = hw::make_fugaku_testbed_platform();
  cluster::SimNodeOptions node_options;
  node_options.seed = seed;
  node_options.observability = true;
  auto node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults(), node_options);
  obs::ts::SeriesSet des_series;
  const SimTime sample_period = SimTime::ms(5);
  const SimTime des_until = SimTime::ms(60);
  obs::ts::RegistrySampler sampler(node->registry(), &des_series,
                                   sample_period, /*capacity=*/64,
                                   /*prefix=*/"node.");
  sampler.schedule(node->simulator(), des_until);
  noise::FwqConfig fwq;
  fwq.work_quantum = SimTime::from_ms(1);
  fwq.iterations = opts.quick ? 40 : 50;
  noise::run_fwq(node->app_kernel(), node->topology().application_cores(),
                 fwq);
  node->simulator().run_until(des_until);

  print_banner(std::cout,
               "DES node counter-rate series (" +
                   std::to_string(sampler.samples()) + " samples, " +
                   std::to_string(sample_period.to_ms()) + " ms period)");
  TextTable des_table({"series", "samples", "total delta", "max delta"});
  for (std::size_t c = 1; c < 4; ++c) des_table.set_align(c, Align::kRight);
  for (const auto& [name, s] : des_series.sorted()) {
    if (s->total_count() == 0) continue;
    double max_delta = 0.0;
    for (std::size_t b = 0; b < s->bucket_count(); ++b) {
      if (!s->bucket(b).empty()) {
        max_delta = std::max(max_delta, s->bucket(b).max);
      }
    }
    des_table.add_row({name,
                       TextTable::fmt_int(static_cast<long long>(
                           s->total_count())),
                       TextTable::fmt(s->total_sum(), 0),
                       TextTable::fmt(max_delta, 0)});
  }
  des_table.print(std::cout);

  // ---- 5. exports ------------------------------------------------------
  // One SeriesSet for the exposition: campaign per-source series under
  // fwq.*, DES counter-rate series under node.*.
  obs::ts::SeriesSet all_series;
  for (std::size_t i = 0; i < campaign.per_source.size(); ++i) {
    const auto& src = timeline.per_source[i];
    all_series
        .series("fwq." + campaign.per_source[i].source + ".overhead_us",
                src.resolution(), src.capacity())
        ->merge(src);
  }
  for (const auto& [name, s] : des_series.sorted()) {
    all_series.series(name, s->resolution(), s->capacity())->merge(*s);
  }
  if (!openmetrics_path.empty()) {
    std::ofstream out(openmetrics_path);
    out << obs::ts::openmetrics_text(node->registry(), &all_series);
    if (!out) {
      std::cerr << "noise_timeline: cannot write " << openmetrics_path
                << "\n";
      return 2;
    }
    std::cout << "\nOpenMetrics exposition written to " << openmetrics_path
              << "\n";
  }

  report.add_metric("campaign.noise_rate", "ratio",
                    campaign.stats.noise_rate);
  report.add_metric("timeline.reconcile_ok", "bool",
                    max_rel_err < 1e-9 ? 1.0 : 0.0);
  for (std::size_t i = 0; i < campaign.per_source.size(); ++i) {
    const std::string base = "series." + campaign.per_source[i].source;
    report.add_metric(base + ".sum_us", "us",
                      timeline.per_source[i].total_sum());
    report.add_metric(base + ".p99_us", "us",
                      timeline.sketches[i].quantile(0.99));
  }
  report.add_metric("heatmap.total_us", "us", timeline.heatmap.total());
  report.add_metric("heatmap.max_cell_us", "us",
                    timeline.heatmap.max_cell());
  report.add_metric("des.sampler.samples", "count",
                    static_cast<double>(sampler.samples()));
  // Every DES registry counter, exactly (integers): the JSON half of the
  // OpenMetrics name round trip.
  obs::ts::add_registry_metrics(report, node->registry(), "counter");
  report.add_metric(
      "host.wall_s", "s",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count());
  // Full series dumps ride along under the (ungated) "series" key.
  for (std::size_t i = 0; i < campaign.per_source.size(); ++i) {
    report.add_series("fwq." + campaign.per_source[i].source + ".overhead_us",
                      "us", timeline.per_source[i]);
  }
  if (const auto* s = des_series.find("node.linux.interrupt_ns")) {
    report.add_series("node.linux.interrupt_ns", "ns", *s);
  }
  if (const auto* s = des_series.find("node.lwk.interrupt_ns")) {
    report.add_series("node.lwk.interrupt_ns", "ns", *s);
  }
  obs::maybe_write_report(report, opts);
  return 0;
}
