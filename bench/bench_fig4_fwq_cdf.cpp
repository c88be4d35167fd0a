// Figure 4 — FWQ latency CDFs: OFP vs Fugaku, Linux vs IHK/McKernel.
//
// The paper's configurations:
//   (a) OFP, 1,024 nodes: Linux and McKernel
//   (b) Fugaku: Linux at full scale (158,976 nodes), Linux on 24 racks
//       (9,216 nodes), McKernel on 24 racks
// Ten ~6-minute measurements (1 h of 6.5 ms quanta) on every application
// core; the worst 100 nodes' data are retained. The campaigns here run the
// statistical node sampler (validated against the node DES in the test
// suite) over the same populations.
//
// Expected shape (§6.3): OFP-Linux tail reaches ~24 ms; OFP-McKernel stays
// under ~7 ms; Fugaku-Linux at full scale reaches ~10 ms; Linux on 24
// racks is only slightly worse than McKernel.
#include <iostream>

#include "cluster/config_json.h"
#include "cluster/fwq_campaign.h"
#include "common/ascii_plot.h"
#include "common/parallel.h"
#include "common/table.h"
#include "noise/profiles.h"
#include "obs/bench_report.h"
#include "obs/prof/prof.h"
#include "obs/prof_report.h"
#include "obs/registry.h"

namespace {

using namespace hpcos;

struct Config {
  std::string slug;
  std::string label;
  noise::AnalyticNoiseProfile profile;
  std::int64_t nodes;
  int app_cores;
  double paper_tail_ms;  // approximate worst iteration from the figure
};

bool identical_results(const cluster::FwqCampaignResult& a,
                       const cluster::FwqCampaignResult& b) {
  if (a.total_iterations != b.total_iterations ||
      a.stats.t_min != b.stats.t_min || a.stats.t_max != b.stats.t_max ||
      a.stats.noise_rate != b.stats.noise_rate ||
      a.worst_node_max_us != b.worst_node_max_us ||
      a.cdf.total_count() != b.cdf.total_count()) {
    return false;
  }
  for (std::size_t i = 0; i < a.cdf.num_bins(); ++i) {
    if (a.cdf.bin_count(i) != b.cdf.bin_count(i)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::parse_bench_options(argc, argv);
  obs::BenchReport report("bench_fig4_fwq_cdf", opts.quick, 20211115);
  // Smoke mode shrinks the populations and the per-core wall time; the
  // configurations and the parallelism, registry and profiler parity
  // checks all still run.
  const bool q = opts.quick;
  const SimTime duration = SimTime::sec(q ? 300 : 3600);

  const std::vector<Config> configs = {
      {"ofp_linux", "OFP / Linux, 1024 nodes", noise::ofp_linux_profile(),
       q ? 64 : 1024, 256, 24.0},
      {"ofp_mckernel", "OFP / McKernel, 1024 nodes",
       noise::ofp_mckernel_profile(), q ? 64 : 1024, 256, 7.0},
      {"fugaku_linux_full", "Fugaku / Linux, full scale",
       noise::fugaku_linux_profile(), q ? 512 : 158976, 48, 10.0},
      {"fugaku_linux_24racks", "Fugaku / Linux, 24 racks",
       noise::fugaku_linux_profile(), q ? 256 : 9216, 48, 7.5},
      {"fugaku_mckernel_24racks", "Fugaku / McKernel, 24 racks",
       noise::fugaku_mckernel_profile(), q ? 256 : 9216, 48, 7.0},
  };

  print_banner(std::cout,
               "Figure 4: FWQ iteration-length CDFs (6.5 ms quanta, 1 h "
               "per core)");
  TextTable t({"configuration", "p50 (ms)", "p99 (ms)", "p99.99 (ms)",
               "max (ms)", "paper max (ms)", "iterations"});
  std::vector<cluster::FwqCampaignResult> results;
  for (const auto& c : configs) {
    cluster::FwqCampaignConfig cfg;
    cfg.nodes = c.nodes;
    cfg.app_cores = c.app_cores;
    cfg.duration_per_core = duration;
    cfg.max_materialized_hits = c.nodes > 20000 ? 256 : 2048;
    cfg.seed = Seed{20211115};
    results.push_back(cluster::run_fwq_campaign(c.profile, cfg));
    const auto& r = results.back();
    t.add_row({c.label,
               TextTable::fmt(r.cdf.quantile(0.50) / 1000.0, 3),
               TextTable::fmt(r.cdf.quantile(0.99) / 1000.0, 3),
               TextTable::fmt(r.cdf.quantile(0.9999) / 1000.0, 3),
               TextTable::fmt(r.stats.t_max.to_ms(), 2),
               TextTable::fmt(c.paper_tail_ms, 1),
               TextTable::fmt_int(
                   static_cast<long long>(r.total_iterations))});
    report.add_metric(c.slug + ".p50_ms", "ms",
                      r.cdf.quantile(0.50) / 1000.0);
    report.add_metric(c.slug + ".p99_ms", "ms",
                      r.cdf.quantile(0.99) / 1000.0);
    report.add_metric(c.slug + ".max_ms", "ms", r.stats.t_max.to_ms());
    std::cout << "." << std::flush;
  }
  std::cout << "\n";
  t.print(std::cout);

  // Draw the CDF tails (fraction of iterations at or below x), matching
  // the figure's layout: OFP on one panel, Fugaku on the other.
  auto tail_series = [](const std::string& label, char glyph,
                        const cluster::FwqCampaignResult& r) {
    PlotSeries s{.label = label, .glyph = glyph, .points = {}};
    for (const auto& [x_us, frac] : r.cdf.cdf_points()) {
      if (frac < 0.95) continue;  // the figure's interesting region
      s.points.emplace_back(x_us / 1000.0, frac);
    }
    return s;
  };
  std::vector<PlotSeries> ofp_panel;
  std::vector<PlotSeries> fugaku_panel;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const char glyph = "LMFLM"[i];
    (i < 2 ? ofp_panel : fugaku_panel)
        .push_back(tail_series(configs[i].label, glyph, results[i]));
  }
  print_banner(std::cout, "Figure 4a: OFP CDF tails (x: iteration ms)");
  ascii_plot(std::cout, ofp_panel,
             PlotOptions{.log_x = true, .x_label = "iteration (ms)"});
  print_banner(std::cout, "Figure 4b: Fugaku CDF tails (x: iteration ms)");
  ascii_plot(std::cout, fugaku_panel,
             PlotOptions{.log_x = true, .x_label = "iteration (ms)"});

  // Worst-100-node view for the full-scale Fugaku run (what the paper
  // saves to the parallel file system).
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = q ? 512 : 158976;
  cfg.app_cores = 48;
  cfg.duration_per_core = duration;
  cfg.max_materialized_hits = 256;
  cfg.seed = Seed{20211115};
  // Ledger identity for this bench: the headline full-scale campaign
  // config (quick vs full runs hash differently, as they must — the node
  // population is a semantic knob).
  report.set_config(cluster::to_config_json(cfg));
  const auto full = cluster::run_fwq_campaign(noise::fugaku_linux_profile(),
                                              cfg);
  print_banner(std::cout,
               "Fugaku full scale: worst-node maxima (100 retained nodes)");
  TextTable w({"node rank", "worst iteration (ms)"});
  for (std::size_t i = 0; i < full.worst_node_max_us.size(); i += 10) {
    w.add_row({TextTable::fmt_int(static_cast<long long>(i + 1)),
               TextTable::fmt(full.worst_node_max_us[i] / 1000.0, 2)});
  }
  w.print(std::cout);
  if (!full.worst_node_max_us.empty()) {
    report.add_metric("full_scale.worst_node_ms", "ms",
                      full.worst_node_max_us.front() / 1000.0);
  }

  // Host parallelism and observability parity on the OFP/Linux campaign.
  // The serial run is the reference; each variant must reproduce it bit
  // for bit:
  //  * the parallel_for scheduler (DESIGN §6);
  //  * an attached obs::Registry — the instrumented paths count
  //    shard-locally and fold once at the end;
  //  * the host-side self-profiler (obs/prof), whose scope fire counts are
  //    a pure function of the simulated work (gated) while its times are
  //    host-dependent (host.*, never judged).
  // What these cost in host time is bench/scale's job: its fig4_campaign
  // workload reports campaign speedup and pool utilisation.
  {
    print_banner(std::cout,
                 "Host parallelism & observability parity: serial vs pool "
                 "vs registry vs profiler");
    cluster::FwqCampaignConfig pcfg;
    pcfg.nodes = q ? 64 : 1024;
    pcfg.app_cores = 256;
    pcfg.duration_per_core = duration;
    pcfg.max_materialized_hits = 2048;
    pcfg.seed = Seed{20211115};
    auto run = [&](std::size_t threads, obs::Registry* registry) {
      pcfg.threads = threads;
      pcfg.registry = registry;
      return cluster::run_fwq_campaign(noise::ofp_linux_profile(), pcfg);
    };
    const std::size_t pool = default_parallelism();
    const auto serial = run(1, nullptr);
    const bool pool_identical = identical_results(serial, run(pool, nullptr));
    obs::Registry registry;
    const bool registry_identical =
        identical_results(serial, run(1, &registry));
    const bool was_enabled = obs::prof::enabled();
    obs::prof::reset();
    obs::prof::set_enabled(true);
    const bool prof_identical = identical_results(serial, run(pool, nullptr));
    obs::prof::set_enabled(was_enabled);
    const auto profile = obs::prof::collect();
    const auto* shard_stat = profile.find("fwq.shard");

    auto verdict = [](bool identical) {
      return identical ? "bit-identical" : "DIFFER (BUG)";
    };
    std::cout << "threads=" << pool << " vs serial: results "
              << verdict(pool_identical) << "\n";
    std::cout << "registry attached (threads=1): results "
              << verdict(registry_identical) << ";  topk pushes="
              << registry.find_counter("fwq.topk.pushes")->value()
              << " evictions="
              << registry.find_counter("fwq.topk.evictions")->value()
              << "\n";
    std::cout << "profiler on (threads=" << pool << "): results "
              << verdict(prof_identical) << ";  scope events="
              << profile.events << " dropped=" << profile.dropped << "\n";
    obs::print_profile(std::cout, profile, /*top=*/10);
    report.add_metric("parallel.bit_identical", "count",
                      pool_identical ? 1.0 : 0.0);
    report.add_metric("registry.bit_identical", "count",
                      registry_identical ? 1.0 : 0.0);
    report.add_metric(
        "registry.topk_pushes", "count",
        static_cast<double>(
            registry.find_counter("fwq.topk.pushes")->value()));
    report.add_metric("prof.bit_identical", "count",
                      prof_identical ? 1.0 : 0.0);
    report.add_metric("prof.dropped", "count",
                      static_cast<double>(profile.dropped));
    report.add_metric(
        "prof.fwq.shard.count", "count",
        shard_stat != nullptr ? static_cast<double>(shard_stat->count) : 0.0);
    if (!prof_identical) return 1;
  }

  // nodes_per_shard sweep: shard geometry fixes the floating-point
  // summation order (determinism contract), so the tunable trade-off is
  // merge overhead (many small shards → many histogram merges) against
  // scheduling granularity (few large shards → poor load balance across
  // the pool). noise_rate per geometry is deterministic and gated, so a
  // change in how sharding folds the sums cannot slip through. The default
  // of 64 nodes/shard sits in the flat center of the cost curve: ~2,500
  // shards at full Fugaku scale (158,976 nodes) keeps every pool width
  // busy while merge cost stays ~0.1% of the campaign.
  {
    print_banner(std::cout,
                 "nodes_per_shard sweep: merge overhead vs scheduling "
                 "granularity");
    cluster::FwqCampaignConfig scfg;
    scfg.nodes = q ? 256 : 4096;
    scfg.app_cores = 48;
    scfg.duration_per_core = duration;
    scfg.max_materialized_hits = 1024;
    scfg.seed = Seed{20211115};
    TextTable st({"nodes/shard", "shards", "noise rate"});
    for (std::size_t c = 1; c < st.num_columns(); ++c) {
      st.set_align(c, Align::kRight);
    }
    for (const std::int64_t per_shard : {8L, 32L, 64L, 256L, 1024L}) {
      scfg.nodes_per_shard = per_shard;
      const auto r =
          cluster::run_fwq_campaign(noise::fugaku_linux_profile(), scfg);
      const std::int64_t shards =
          (scfg.nodes + per_shard - 1) / per_shard;
      st.add_row({TextTable::fmt_int(per_shard),
                  TextTable::fmt_int(shards),
                  TextTable::fmt_sci(r.stats.noise_rate, 4)});
      const std::string slug =
          "shard_sweep." + std::to_string(per_shard);
      report.add_metric(slug + ".noise_rate", "ratio", r.stats.noise_rate);
    }
    st.print(std::cout);
    report.add_metric("shard_sweep.default", "count", 64.0);
  }
  obs::maybe_write_report(report, opts);
  return 0;
}
