// noise_explain — who stole the time, and who stalled the barrier.
//
// The offline attribution engine (src/obs/attrib) driven end to end:
//
//  1. runs a seeded machine-scale FWQ campaign on the production Fugaku
//     Linux profile and prints the per-source attribution ledger — time
//     stolen per source, its share, the analytic Table 2 expectation, and
//     a divergence flag — plus the Eq. 2 reconciliation line (the
//     per-source sums must reproduce the campaign's noise_rate),
//  2. runs a short DES node campaign with tracing on, then runs BSP rank
//     timelines *anchored at the node's FWQ start time* so the bsp:*
//     phase spans and the node's kernel noise events share one wall
//     clock; prints the straggler / critical-path report with the node
//     events overlaid on each straggler's compute window,
//  3. prints the node's two §4.2 interference tables: every trace record
//     on its application cores ranked per activity (the ftrace view,
//     §4.2.1), and each application core's kernel time against its stall
//     time over the FWQ window (the counter view, §4.2.2).
//
// Flags: --quick (smaller campaign), --json <path> (BenchReport; the
// attrib_smoke/attrib_gate ctest jobs consume this), --folded <path>
// (folded-stack export of the anchored BSP trace for flamegraph tools).
#include <chrono>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/bsp.h"
#include "cluster/fwq_campaign.h"
#include "cluster/job_launcher.h"
#include "cluster/node.h"
#include "cluster/osenv.h"
#include "common/table.h"
#include "hw/platform.h"
#include "linuxk/config.h"
#include "linuxk/interference.h"
#include "noise/attribution.h"
#include "noise/fwq.h"
#include "noise/profiles.h"
#include "obs/attrib/critical_path.h"
#include "obs/attrib/ledger.h"
#include "obs/attrib/report.h"
#include "obs/bench_report.h"
#include "sim/folded_stack.h"

#include "cli_util.h"

namespace {

using namespace hpcos;

// The BSP workload the straggler walk uses: compute-heavy with churn and
// imbalance so the barrier has something to wait for.
class StencilStep final : public cluster::Workload {
 public:
  std::string name() const override { return "stencil-step"; }
  int iterations() const override { return 6; }
  cluster::RankWork rank_work(int, const cluster::JobConfig&,
                              const cluster::OsEnvironment&) const override {
    cluster::RankWork w;
    w.compute = SimTime::from_ms(4);
    w.working_set_bytes = 128ull << 20;
    w.alloc_churn_bytes = 8ull << 20;
    w.touch_bytes = 2ull << 20;
    w.allreduces = 1;
    w.allreduce_bytes = 4096;
    w.halo_neighbors = 6;
    w.halo_bytes = 64ull << 10;
    w.barriers = 1;
    w.imbalance_sigma = 0.04;
    return w;
  }
  cluster::InitWork init_work(const cluster::JobConfig&,
                              const cluster::OsEnvironment&) const override {
    cluster::InitWork init;
    init.serial_setup = SimTime::from_ms(2);
    init.touch_bytes = 16ull << 20;
    return init;
  }
};

// Memory phase on the DES node: a prepopulated large-page mmap, a
// base-page mmap, and a munmap of the large region. Its page-fault and
// TLB-shootdown records rank beside the FWQ noise in the interference
// report.
struct MemoryPhase final : os::ThreadBody {
  int stage = 0;
  std::uint64_t large_addr = 0;
  void step(os::ThreadContext& ctx) override {
    switch (stage++) {
      case 0:  // prefer_large bit -> large pages where the policy allows
        ctx.invoke(os::Syscall::kMmap,
                   os::SyscallArgs{.arg0 = 32ull << 20, .arg1 = 1});
        return;
      case 1:
        large_addr = static_cast<std::uint64_t>(ctx.last_syscall().value);
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 2ull << 20});
        return;
      case 2:
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = large_addr,
                                   .arg1 = 32ull << 20});
        return;
      default:
        ctx.exit();
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();
  auto opts = obs::parse_bench_options(argc, argv);
  std::string folded_path;
  tools::CliArgs cli(
      "usage: noise_explain [--quick] [--json <path>] [--ledger <path>]"
      " [--folded <path>] [--progress[=ms]] [--watchdog[=s]]");
  cli.add_value("--folded", &folded_path);
  if (!cli.parse(opts.remaining)) return 2;

  const Seed seed{2024};
  obs::BenchReport report("noise_explain", opts.quick, seed.value);

  // ---- 1. campaign ledger ---------------------------------------------
  const auto profile = noise::fugaku_linux_profile();
  cluster::FwqCampaignConfig config;
  config.nodes = opts.quick ? 96 : 1536;
  config.app_cores = 48;
  config.work_quantum = SimTime::from_ms(6.5);
  config.duration_per_core = opts.quick ? SimTime::sec(60) : SimTime::sec(600);
  config.seed = seed;
  const auto campaign = cluster::run_fwq_campaign(profile, config);
  const auto ledger = obs::attrib::build_ledger(campaign, profile, config);

  print_banner(std::cout,
               "Attribution ledger: " + profile.name + " FWQ campaign (" +
                   std::to_string(config.nodes) + " nodes x " +
                   std::to_string(config.app_cores) + " cores)");
  obs::attrib::print_ledger(std::cout, ledger);
  std::cout << "  campaign noise rate " << campaign.stats.noise_rate
            << " (Eq. 2), max noise length "
            << campaign.stats.max_noise_length.to_us() << " us\n";

  // ---- 2. anchored BSP straggler walk ---------------------------------
  // A DES Linux node provides the wall-clock noise events; the BSP rank
  // timelines are anchored at the node's FWQ start so both live on one
  // clock and the overlay is meaningful. The node runs with three §4
  // countermeasures off (the Table 2 "before" configuration) — the
  // production setup is quiet enough that a short trace has nothing to
  // attribute, which is the paper's point but a dull demo.
  const auto platform = hw::make_fugaku_testbed_platform();
  noise::Countermeasures cm;
  cm.bind_daemons = false;
  cm.stop_pmu_reads = false;
  cm.suppress_global_tlbi = false;
  auto node_config = linuxk::make_fugaku_linux_config(platform, cm);
  node_config.profile = noise::strip_population_tails(node_config.profile);
  cluster::SimNodeOptions node_options;
  node_options.seed = seed;
  node_options.trace_capacity = 1 << 16;
  auto node = cluster::SimNode::make_linux_node(platform,
                                                std::move(node_config),
                                                node_options);
  // Launcher-driven memory phase first, then FWQ; anchoring at now()
  // instead of zero is what places the BSP timelines after it on the
  // node's wall clock.
  cluster::JobLauncher launcher(*node);
  const auto mem_job = launcher.launch(cluster::LaunchSpec{.ranks = 1});
  launcher.spawn_rank_thread(mem_job, 0, std::make_unique<MemoryPhase>(),
                             "memory-phase");
  node->simulator().run_until(SimTime::ms(50));
  const SimTime fwq_start = node->simulator().now();
  // Each application core's accounting when the FWQ window opens (§3).
  const auto app_cores = node->topology().application_cores().to_vector();
  std::vector<os::CoreAccounting> fwq_before;
  for (const hw::CoreId c : app_cores) {
    fwq_before.push_back(node->app_kernel().accounting(c));
  }
  noise::FwqConfig fwq;
  fwq.work_quantum = SimTime::from_ms(1);
  fwq.iterations = opts.quick ? 100 : 400;
  noise::run_fwq(node->app_kernel(), node->topology().application_cores(),
                 fwq);
  const auto node_records = node->trace().snapshot();

  const auto env = cluster::make_fugaku_linux_env();
  const cluster::JobConfig job{.nodes = 64, .ranks_per_node = 4,
                               .threads_per_rank = 12};
  sim::TraceBuffer bsp_trace(1 << 14);
  StencilStep solver;
  const int tracks = 4;
  for (int track = 0; track < tracks; ++track) {
    cluster::BspEngine engine(
        env, job, Seed{seed.value + static_cast<std::uint64_t>(track)});
    engine.set_trace(&bsp_trace, static_cast<hw::CoreId>(track), fwq_start);
    engine.run(solver);
  }
  const auto bsp_records = bsp_trace.snapshot();
  auto straggler = obs::attrib::build_straggler_report(bsp_records);
  // Core-aware overlay: the 4 sampled rank tracks share the one DES node,
  // so partition its application cores round-robin across the tracks and
  // let per-core noise events land only on the rank that owns the core.
  const auto num_cores =
      static_cast<std::size_t>(node->topology().logical_cores());
  obs::attrib::TrackCoreMap track_cores;
  for (int track = 0; track < tracks; ++track) {
    track_cores.emplace(static_cast<hw::CoreId>(track),
                        hw::CpuSet(num_cores));
  }
  for (std::size_t i = 0; i < app_cores.size(); ++i) {
    track_cores[static_cast<hw::CoreId>(i % tracks)].set(app_cores[i]);
  }
  obs::attrib::overlay_noise_events(straggler, node_records,
                                    /*max_events=*/3, &track_cores);

  print_banner(std::cout,
               "Straggler / critical path: " + std::to_string(tracks) +
                   " sampled rank timelines anchored at node t=" +
                   std::to_string(fwq_start.to_us()) + " us");
  obs::attrib::print_straggler_report(std::cout, straggler);

  // ---- 3. interference on the node's application cores (§4.2) ---------
  const auto interference = linuxk::analyze_interference(
      node->trace(), node->topology().application_cores());
  print_banner(std::cout,
               "Interference report: trace records on the application "
               "cores (ftrace view, §4.2.1)");
  std::cout << to_string(interference) << "dominant interferer: "
            << interference.dominant() << "  (total stolen: "
            << interference.total_interference.to_string() << " across "
            << interference.total_events << " events)\n";

  print_banner(std::cout,
               "Per-core attribution over the FWQ window: OS activity vs "
               "hardware contention (counter view, §4.2.2)");
  TextTable acct({"core", "class", "kernel time", "stall time", "interrupts"});
  for (std::size_t i = 0; i < app_cores.size(); ++i) {
    const auto r = noise::attribute_window(
        fwq_before[i], node->app_kernel().accounting(app_cores[i]));
    if (r.cls == noise::InterferenceClass::kNone) continue;
    acct.add_row({TextTable::fmt_int(app_cores[i]), to_string(r.cls),
                  r.kernel_time.to_string(), r.stall_time.to_string(),
                  TextTable::fmt_int(static_cast<long long>(r.interrupts))});
  }
  acct.print(std::cout);

  if (!folded_path.empty()) {
    try {
      sim::export_folded_stack(bsp_records, folded_path);
    } catch (const std::exception& e) {
      std::cerr << "noise_explain: " << e.what() << "\n";
      return 2;
    }
    std::cout << "\nFolded stacks (flamegraph/speedscope) written to "
              << folded_path << "\n";
  }

  // ---- BenchReport -----------------------------------------------------
  obs::attrib::add_ledger_metrics(report, ledger);
  obs::attrib::add_straggler_metrics(report, straggler);
  report.add_metric("campaign.noise_rate", "ratio",
                    campaign.stats.noise_rate);
  report.add_metric("campaign.iterations", "count",
                    static_cast<double>(campaign.total_iterations));
  report.add_metric("node.trace_records", "count",
                    static_cast<double>(node_records.size()));
  report.add_metric(
      "host.wall_s", "s",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count());
  obs::maybe_write_report(report, opts);
  return 0;
}
