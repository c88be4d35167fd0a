// hotspot — where does the *simulator's own* host time go?
//
// The ROADMAP's full-Fugaku item ("profile and rework the DES hot loop")
// needs a measurement harness before any calendar-queue or arena/SoA
// rework can be evidence-driven. This tool is that harness. Four
// sections:
//
//   1. Accounting run (serial, profiler on, one root scope): a DES
//      multi-kernel node under an FWQ workload plus a threads=1 FWQ
//      campaign. Everything executes on this thread under
//      "hotspot.run", so the merged profile must satisfy
//      sum(self) == root total ~= wall clock — the check that validates
//      the entire self/total accounting chain. Prints the ranked
//      hotspot table, the DES queue telemetry (push/pop/cancel,
//      depth-over-virtual-time), the per-handler host-time attribution,
//      and exports the folded-stack flamegraph (--folded).
//   2. Scheduler health: the same campaign across the worker pool;
//      prints what it added to the host-counter table's parallel.*
//      entries (groups, chunks, steals, wakeups, parks, park time,
//      backlog).
//   3. Memory: per-subsystem allocation counters (the host-counter
//      table's mem.* entries) and process RSS.
//   4. Sampled span tracing (obs/live): the accounting node's span trace
//      through the deterministic sampler, both lossless (rate=1 must
//      keep every tree — an exactness check on the sampler itself) and
//      thinned (rate + reservoir cap, the full-scale memory story), with
//      per-label duration quantiles from the histograms that see every
//      root.
//
// Exit status is non-zero when any accounting check fails, so the
// hotspot_smoke ctest job guards the profiler's arithmetic, not just
// its plumbing (exit 2 when the --folded path cannot be written).
// Determinism: every scope/handler *count* and every simulated-time
// metric is a pure function of (config, seed) and is regression-gated;
// host times ride under the never-judged host.* prefix.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fwq_campaign.h"
#include "cluster/node.h"
#include "common/parallel.h"
#include "common/table.h"
#include "hw/platform.h"
#include "linuxk/config.h"
#include "mckernel/mckernel.h"
#include "noise/fwq.h"
#include "noise/profiles.h"
#include "obs/bench_report.h"
#include "obs/explain/explain.h"
#include "obs/live/span_sampler.h"
#include "obs/prof/counters.h"
#include "obs/prof/mem.h"
#include "obs/prof/prof.h"
#include "obs/prof_report.h"
#include "obs/timeseries/timeseries.h"
#include "oskernel/thread.h"
#include "sim/folded_stack.h"

#include "cli_util.h"

namespace {

using namespace hpcos;

// §4's span workload: each thread issues `count` offloaded syscalls, so
// the node's trace carries parent-linked span trees (LWK -> IKC -> proxy
// -> IKC -> LWK) for the sampler to walk.
struct OffloadBurst final : os::ThreadBody {
  explicit OffloadBurst(int count) : remaining(count) {}
  int remaining;
  void step(os::ThreadContext& ctx) override {
    if (remaining == 0) {
      ctx.exit();
      return;
    }
    --remaining;
    ctx.invoke(os::Syscall::kStat, {});
  }
};

cluster::FwqCampaignConfig campaign_config(bool quick, std::size_t threads) {
  cluster::FwqCampaignConfig config;
  config.nodes = quick ? 96 : 768;
  config.app_cores = 48;
  config.work_quantum = SimTime::from_ms(6.5);
  config.duration_per_core = quick ? SimTime::sec(60) : SimTime::sec(600);
  // Finer shards than the default so the scheduler-health section has
  // chunks worth watching. Shard boundaries fix the summation order, so
  // both runs (serial and parallel) must use the same value — that is
  // exactly what makes their results bit-comparable.
  config.nodes_per_shard = 8;
  config.seed = Seed{2026};
  config.threads = threads;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = obs::parse_bench_options(argc, argv);
  std::string folded_path;
  tools::CliArgs cli(
      "usage: hotspot [--quick] [--json <path>] [--ledger <path>]"
      " [--folded <path>] [--progress[=ms]] [--watchdog[=s]]");
  cli.add_value("--folded", &folded_path);
  if (!cli.parse(opts.remaining)) return 2;

  const bool q = opts.quick;
  obs::BenchReport report("hotspot", q, 2026);
  bool ok = true;

  // ---- 1. accounting run (serial, one root scope) ----------------------
  obs::prof::set_thread_buffer_capacity(std::size_t{1} << 20);
  obs::prof::set_enabled(true);
  obs::prof::reset();

  const auto platform = hw::make_fugaku_testbed_platform();
  cluster::SimNodeOptions node_options;
  node_options.seed = Seed{2026};
  // Span ring for §4 (sampled span tracing); sized so the quick DES
  // window fits without wraparound and the lossless check stays exact.
  node_options.trace_capacity = 1 << 15;
  auto node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults(), node_options);

  // Queue-depth-over-virtual-time series via the simulator's depth probe.
  obs::ts::TimeSeries depth_series(SimTime::ms(1), /*capacity=*/256);
  node->simulator().set_depth_probe(
      [&depth_series](SimTime t, std::size_t depth) {
        depth_series.record(t, static_cast<double>(depth));
      });

  cluster::FwqCampaignResult serial_campaign;
  const SimTime des_until = q ? SimTime::ms(60) : SimTime::ms(250);
  const std::int64_t wall_start = obs::prof::now_ns();
  {
    PROF_SCOPE("hotspot.run");
    {
      PROF_SCOPE("hotspot.des");
      noise::FwqConfig fwq;
      fwq.work_quantum = SimTime::from_ms(1);
      fwq.iterations = q ? 40 : 200;
      noise::run_fwq(node->app_kernel(),
                     node->topology().application_cores(), fwq);
      for (int t = 0; t < 4; ++t) {
        node->lwk()->spawn(std::make_unique<OffloadBurst>(q ? 12 : 50),
                           os::SpawnAttrs{.name = "offload-burst"});
      }
      node->simulator().run_until(des_until);
    }
    {
      PROF_SCOPE("hotspot.campaign");
      serial_campaign = cluster::run_fwq_campaign(
          noise::fugaku_linux_profile(), campaign_config(q, /*threads=*/1));
    }
  }
  const std::int64_t wall_ns = obs::prof::now_ns() - wall_start;
  obs::prof::set_enabled(false);
  const obs::prof::Profile profile = obs::prof::collect();

  print_banner(std::cout, "Host-side hotspots (serial accounting run)");
  obs::print_profile(std::cout, profile, /*top=*/25);

  // The whole section ran on this thread under one root scope, so the
  // profiler's arithmetic must close: sum(self) == root total exactly,
  // and the root total must account for (nearly all of) the wall clock.
  const std::int64_t sum_self = profile.sum_self_ns();
  const bool self_closes = sum_self == profile.root_total_ns;
  const double wall_covered =
      wall_ns > 0 ? static_cast<double>(profile.root_total_ns) /
                        static_cast<double>(wall_ns)
                  : 0.0;
  const bool wall_accounted = wall_covered > 0.75 && wall_covered < 1.05;
  std::cout << "accounting: sum(self) = "
            << TextTable::fmt(static_cast<double>(sum_self) / 1e6, 3)
            << " ms, root total = "
            << TextTable::fmt(
                   static_cast<double>(profile.root_total_ns) / 1e6, 3)
            << " ms (" << (self_closes ? "exact" : "MISMATCH (BUG)")
            << "), wall = "
            << TextTable::fmt(static_cast<double>(wall_ns) / 1e6, 3)
            << " ms (" << TextTable::fmt_percent(wall_covered, 1)
            << " accounted" << (wall_accounted ? ")" : " — OUT OF RANGE)")
            << "\n";
  ok = ok && self_closes && wall_accounted && profile.dropped == 0;

  // Folded-stack flamegraph export.
  const std::string folded_err = sim::validate_folded_stack(profile.folded);
  if (!folded_err.empty()) {
    std::cout << "folded-stack INVALID: " << folded_err << "\n";
    ok = false;
  }
  if (!folded_path.empty()) {
    std::ofstream out(folded_path);
    out << profile.folded;
    if (!out) {
      std::cerr << "hotspot: cannot write " << folded_path << "\n";
      return 2;
    }
    std::cout << "folded flamegraph ("
              << std::count(profile.folded.begin(), profile.folded.end(),
                            '\n')
              << " stacks) written to " << folded_path << "\n";
  }

  // DES core telemetry: the event-queue hot path in numbers.
  const sim::QueueTelemetry& qt = node->simulator().queue_telemetry();
  print_banner(std::cout, "DES event queue (multi-kernel node, " +
                              TextTable::fmt(des_until.to_ms(), 0) + " ms)");
  TextTable queue_table({"pushes", "pops", "cancels", "skipped", "max depth",
                         "mean depth"});
  for (std::size_t c = 0; c < 6; ++c) queue_table.set_align(c, Align::kRight);
  const double mean_depth =
      depth_series.total_count() > 0
          ? depth_series.total_sum() /
                static_cast<double>(depth_series.total_count())
          : 0.0;
  queue_table.add_row(
      {TextTable::fmt_int(static_cast<long long>(qt.pushes)),
       TextTable::fmt_int(static_cast<long long>(qt.pops)),
       TextTable::fmt_int(static_cast<long long>(qt.cancels)),
       TextTable::fmt_int(static_cast<long long>(qt.skipped)),
       TextTable::fmt_int(static_cast<long long>(qt.max_depth)),
       TextTable::fmt(mean_depth, 1)});
  queue_table.print(std::cout);

  // Handler attribution is the profile's des.fire.<tag> scopes, tag-sorted.
  const std::string fire_prefix = "des.fire.";
  std::vector<obs::prof::ScopeStat> handlers;
  for (const auto& scope : profile.scopes) {
    if (scope.name.starts_with(fire_prefix)) handlers.push_back(scope);
  }
  std::sort(handlers.begin(), handlers.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  print_banner(std::cout, "DES handler attribution (host time per tag)");
  TextTable handler_table({"tag", "fired", "host ms", "ns/event"});
  for (std::size_t c = 1; c < 4; ++c) handler_table.set_align(c, Align::kRight);
  for (const auto& h : handlers) {
    handler_table.add_row(
        {h.name.substr(fire_prefix.size()),
         TextTable::fmt_int(static_cast<long long>(h.count)),
         TextTable::fmt(static_cast<double>(h.total_ns) / 1e6, 3),
         TextTable::fmt(static_cast<double>(h.total_ns) /
                            static_cast<double>(h.count),
                        0)});
  }
  handler_table.print(std::cout);

  // ---- 2. scheduler health (parallel campaign) --------------------------
  obs::prof::reset();
  // Ask for at least two participants so the run crosses the scheduler
  // even on single-core CI hosts (requests clamp to parallel_capacity();
  // results are thread-count-independent by the determinism contract).
  const obs::prof::CounterSnapshot sched_before =
      obs::prof::host_counter_snapshot();
  const auto parallel_campaign = cluster::run_fwq_campaign(
      noise::fugaku_linux_profile(),
      campaign_config(q, std::max<std::size_t>(2, parallel_capacity())));
  const obs::prof::CounterSnapshot sched_after =
      obs::prof::host_counter_snapshot();
  // What the campaign added to each parallel.* entry; the backlog gauge
  // and max_backlog are levels, so they print as read afterwards.
  auto sched_delta = [&](const std::string& name) {
    return sched_after.value(name) - sched_before.value(name);
  };

  const bool campaign_identical =
      serial_campaign.stats.noise_rate == parallel_campaign.stats.noise_rate &&
      serial_campaign.total_iterations == parallel_campaign.total_iterations;
  ok = ok && campaign_identical;

  print_banner(std::cout,
               "Scheduler health (campaign across " +
                   std::to_string(parallel_capacity()) + " threads)");
  TextTable sched({"counter", "value"});
  sched.set_align(1, Align::kRight);
  for (const auto& c : sched_after.counters) {
    if (!c.name.starts_with("parallel.")) continue;
    const bool level =
        c.name == "parallel.backlog" || c.name == "parallel.max_backlog";
    sched.add_row({c.name, TextTable::fmt_int(static_cast<long long>(
                               level ? c.value : sched_delta(c.name)))});
  }
  sched.print(std::cout);
  std::cout << "parallel results "
            << (campaign_identical ? "match serial (bit-identical)"
                                   : "DIFFER FROM SERIAL (BUG)")
            << "\n";

  // ---- 3. memory --------------------------------------------------------
  print_banner(std::cout, "Host memory (per-subsystem counters + RSS)");
  TextTable mem_table({"counter", "value"});
  mem_table.set_align(1, Align::kRight);
  for (const auto& c : obs::prof::host_counter_snapshot().counters) {
    if (!c.name.starts_with("mem.")) continue;
    mem_table.add_row(
        {c.name, TextTable::fmt_int(static_cast<long long>(c.value))});
  }
  mem_table.print(std::cout);
  const obs::prof::HostMemory host_mem = obs::prof::sample_host_memory();
  if (host_mem.valid) {
    std::cout << "rss " << host_mem.rss_bytes / (1024 * 1024)
              << " MiB, peak rss " << host_mem.peak_rss_bytes / (1024 * 1024)
              << " MiB, vm " << host_mem.vm_bytes / (1024 * 1024) << " MiB\n";
  }

  // ---- 4. sampled span tracing ------------------------------------------
  // The accounting node's span trace through both sides of the sampler:
  // lossless (rate=1, no cap) must keep every tree bit-for-bit — the
  // in-tool twin of the quick-scale exactness test — while the thinned
  // config shows what a full-machine run would retain per node. The
  // histograms cover every root either way, so the quantile columns do
  // not depend on how hard the raw side thins.
  const std::vector<sim::TraceRecord> trace_records = node->trace().snapshot();
  std::size_t spanned_records = 0;
  for (const sim::TraceRecord& r : trace_records) {
    if (r.span != 0) ++spanned_records;
  }
  obs::live::SpanSamplerConfig lossless_cfg;
  lossless_cfg.seed = 2026;
  const obs::live::NodeSample lossless =
      obs::live::sample_node(lossless_cfg, /*node_index=*/0, trace_records);
  obs::live::SpanSamplerConfig thinned_cfg = lossless_cfg;
  thinned_cfg.rate = 0.25;
  thinned_cfg.max_roots_per_node = 32;
  const obs::live::NodeSample thinned =
      obs::live::sample_node(thinned_cfg, /*node_index=*/0, trace_records);

  // Every spanned record belongs to exactly one tree (orphans are
  // promoted to roots), so rate=1 with no cap must retain all of them.
  const bool sampler_lossless =
      lossless.roots_kept == lossless.roots_seen &&
      lossless.records_kept == spanned_records;
  const bool reservoir_bounded =
      thinned.roots_kept <= thinned_cfg.max_roots_per_node;
  ok = ok && sampler_lossless && reservoir_bounded;

  print_banner(std::cout, "Sampled span tracing (obs/live, node span trace)");
  TextTable span_table({"root label", "roots", "p50 us", "p99 us", "max us"});
  for (std::size_t c = 1; c < 5; ++c) span_table.set_align(c, Align::kRight);
  for (const auto& [label, sketch] : lossless.sketches) {
    span_table.add_row(
        {label,
         TextTable::fmt_int(static_cast<long long>(sketch.total_count())),
         TextTable::fmt(sketch.quantile(0.50), 2),
         TextTable::fmt(sketch.quantile(0.99), 2),
         TextTable::fmt(sketch.observed_max(), 2)});
  }
  span_table.print(std::cout);
  std::cout << "trace: " << trace_records.size() << " records ("
            << spanned_records << " spanned, " << lossless.roots_seen
            << " roots); lossless pass kept " << lossless.records_kept
            << (sampler_lossless ? " (exact)" : " (LOSSY — BUG)")
            << "; thinned (rate=" << TextTable::fmt(thinned_cfg.rate, 2)
            << ", cap=" << thinned_cfg.max_roots_per_node << ") kept "
            << thinned.roots_kept << " roots / " << thinned.records_kept
            << " records"
            << (reservoir_bounded ? "" : " (CAP EXCEEDED — BUG)") << "\n";

  // ---- report -----------------------------------------------------------
  // Deterministic (gated): every scope/handler count, the DES queue
  // counters, and the campaign's simulated results. Host times and
  // scheduler health (pool-size and OS-scheduling dependent) are host.*.
  report.add_metric("prof.accounting_ok", "bool",
                    self_closes && wall_accounted ? 1.0 : 0.0);
  report.add_metric("prof.folded_valid", "bool",
                    folded_err.empty() ? 1.0 : 0.0);
  report.add_metric("prof.dropped", "count",
                    static_cast<double>(profile.dropped));
  report.add_metric("campaign.bit_identical", "bool",
                    campaign_identical ? 1.0 : 0.0);
  report.add_metric("campaign.noise_rate", "ratio",
                    serial_campaign.stats.noise_rate);
  report.add_metric("campaign.iterations", "count",
                    static_cast<double>(serial_campaign.total_iterations));
  report.add_metric("des.queue.pushes", "count",
                    static_cast<double>(qt.pushes));
  report.add_metric("des.queue.pops", "count", static_cast<double>(qt.pops));
  report.add_metric("des.queue.cancels", "count",
                    static_cast<double>(qt.cancels));
  report.add_metric("des.queue.skipped", "count",
                    static_cast<double>(qt.skipped));
  report.add_metric("des.queue.max_depth", "count",
                    static_cast<double>(qt.max_depth));
  report.add_metric("des.queue.mean_depth", "count", mean_depth);
  for (const auto& h : handlers) {
    report.add_metric(h.name + ".count", "count",
                      static_cast<double>(h.count));
    report.add_metric("host." + h.name + ".us", "us",
                      static_cast<double>(h.total_ns) / 1e3);
  }
  report.add_metric("live.trace.records.count", "count",
                    static_cast<double>(trace_records.size()));
  report.add_metric("live.sample.roots_seen.count", "count",
                    static_cast<double>(lossless.roots_seen));
  report.add_metric("live.sample.lossless", "bool",
                    sampler_lossless ? 1.0 : 0.0);
  report.add_metric("live.sample.thinned.roots.count", "count",
                    static_cast<double>(thinned.roots_kept));
  report.add_metric("live.sample.thinned.records.count", "count",
                    static_cast<double>(thinned.records_kept));
  report.add_metric("live.sketch.labels.count", "count",
                    static_cast<double>(lossless.sketches.size()));
  // Per-label span self-time aggregates (span.<label>.self_us with
  // p50/p99 from the lossless histograms) — the explainer's span layer
  // reads these, making hotspot runs pair-wise explainable.
  obs::explain::add_span_label_metrics(report, trace_records,
                                       &lossless.sketches);
  add_profile_metrics(report, profile);
  report.add_metric("host.parallel.steals.count", "count",
                    static_cast<double>(sched_delta("parallel.steals")));
  report.add_metric("host.parallel.parks.count", "count",
                    static_cast<double>(sched_delta("parallel.parks")));
  report.add_metric(
      "host.parallel.park_ms", "ms",
      static_cast<double>(sched_delta("parallel.park_ns")) / 1e6);
  report.add_metric("host.wall_ms", "ms", static_cast<double>(wall_ns) / 1e6);
  report.add_series("des.queue.depth", "events", depth_series);
  obs::maybe_write_report(report, opts);

  if (!ok) {
    std::cerr << "hotspot: accounting checks FAILED\n";
    return 1;
  }
  return 0;
}
