// obs_report — cross-layer observability tour (ROADMAP: observability).
//
// Runs the same short campaign on a Linux node and a multi-kernel node
// with the trace buffer enabled, then prints what the instrumentation saw:
//   * a ranked counter comparison (Linux vs multi-kernel, the Table 2
//     presentation style applied to kernel-internal event counts),
//   * the offload round trips (their phases are the offload:* span trees),
//   * a span report grouped by label, reconstructed from the trace
//     buffer's span/parent ids,
//   * page-fault / TLB-shootdown span trees from a prepopulated mmap +
//     munmap phase (the demand-paging side of the Figure 5-7 costs),
//   * collective-phase span trees from a BSP run (init + per-iteration
//     compute / barrier / allreduce split on synthetic rank tracks),
// and exports everything as ONE merged Chrome trace_event JSON document —
// per-node pids plus named BSP rank tracks — validated structurally
// before it is written (load it at https://ui.perfetto.dev).
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <chrono>

#include "cluster/bsp.h"
#include "cluster/job_launcher.h"
#include "cluster/node.h"
#include "cluster/osenv.h"
#include "common/stats.h"
#include "common/table.h"
#include "noise/fwq.h"
#include "obs/bench_report.h"
#include "obs/timeseries/openmetrics.h"
#include "sim/chrome_trace.h"
#include "sim/span_tree.h"

namespace {

using namespace hpcos;

// Issues a burst of syscalls: local clock reads interleaved with calls
// McKernel must delegate to the Linux side (stat).
struct SyscallBurst final : os::ThreadBody {
  int remaining = 32;
  void step(os::ThreadContext& ctx) override {
    if (remaining-- <= 0) {
      ctx.exit();
      return;
    }
    ctx.invoke(remaining % 4 == 0 ? os::Syscall::kStat
                                  : os::Syscall::kGetTimeOfDay,
               {});
  }
};

// Memory phase: two prepopulated mmaps (a large-page region and a
// base-page region, i.e. hugeTLB and bulk-"major" fault trees) followed by
// a munmap of the large region (TLB-shootdown tree under the unmap root).
struct MemoryPhase final : os::ThreadBody {
  int stage = 0;
  std::uint64_t large_addr = 0;
  void step(os::ThreadContext& ctx) override {
    switch (stage++) {
      case 0:  // prefer_large bit set -> large pages where available
        ctx.invoke(os::Syscall::kMmap,
                   os::SyscallArgs{.arg0 = 64ull << 20, .arg1 = 1});
        return;
      case 1:
        large_addr = static_cast<std::uint64_t>(ctx.last_syscall().value);
        ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = 4ull << 20});
        return;
      case 2:
        ctx.invoke(os::Syscall::kMunmap,
                   os::SyscallArgs{.arg0 = large_addr,
                                   .arg1 = 64ull << 20});
        return;
      default:
        ctx.exit();
    }
  }
};

// One node's campaign: a syscall burst on the application kernel, a
// launcher-driven memory phase (the runtime's prepopulate + large-page
// policy, so mmap faults in bulk), and a short FWQ run on every
// application core.
void run_campaign(cluster::SimNode& node) {
  node.app_kernel().spawn(std::make_unique<SyscallBurst>(),
                          os::SpawnAttrs{.name = "syscall-burst"});
  node.simulator().run_until(SimTime::ms(50));
  cluster::JobLauncher launcher(node);
  const auto job = launcher.launch(cluster::LaunchSpec{.ranks = 1});
  launcher.spawn_rank_thread(job, 0, std::make_unique<MemoryPhase>(),
                             "memory-phase");
  node.simulator().run_until(SimTime::ms(100));
  noise::FwqConfig fwq;
  fwq.work_quantum = SimTime::from_ms(1);
  fwq.iterations = 200;
  noise::run_fwq(node.app_kernel(), node.topology().application_cores(),
                 fwq);
}

// Small BSP workload exercising every phase the engine traces: fault-in,
// heap churn, imbalance, allreduce (reduce-scatter/allgather split), halo,
// inter-node barrier.
class MiniSolver final : public cluster::Workload {
 public:
  std::string name() const override { return "mini-solver"; }
  int iterations() const override { return 4; }
  cluster::RankWork rank_work(int, const cluster::JobConfig&,
                              const cluster::OsEnvironment&) const override {
    cluster::RankWork w;
    w.compute = SimTime::from_ms(2);
    w.working_set_bytes = 256ull << 20;
    w.alloc_churn_bytes = 8ull << 20;
    w.touch_bytes = 4ull << 20;
    w.allreduces = 2;
    w.allreduce_bytes = 4096;
    w.halo_neighbors = 6;
    w.halo_bytes = 128ull << 10;
    w.barriers = 1;
    w.thread_barriers = 4;
    w.imbalance_sigma = 0.05;
    return w;
  }
  cluster::InitWork init_work(const cluster::JobConfig&,
                              const cluster::OsEnvironment&) const override {
    cluster::InitWork init;
    init.serial_setup = SimTime::from_ms(10);
    init.touch_bytes = 64ull << 20;
    init.rdma_registrations = 4;
    init.rdma_bytes_each = 16ull << 20;
    return init;
  }
};

// Print the span trees whose root matches `is_root`, children indented
// under their parent (at most `max_roots` trees), in (time, span) order.
void print_span_trees(
    const std::vector<sim::TraceRecord>& records, const std::string& title,
    const std::function<bool(const sim::TraceRecord&)>& is_root,
    std::size_t max_roots) {
  const sim::SpanForest forest(records);
  print_banner(std::cout, title);
  std::function<void(std::size_t, int)> print_node = [&](std::size_t i,
                                                          int depth) {
    const sim::TraceRecord& r = records[i];
    std::cout << std::string(static_cast<std::size_t>(depth) * 2, ' ')
              << r.label << "  [" << to_string(r.category) << "] "
              << TextTable::fmt(r.duration.to_us(), 2) << " us @ t="
              << TextTable::fmt(r.time.to_us(), 1) << " us\n";
    for (const std::size_t c : forest.children(i)) print_node(c, depth + 1);
  };
  std::size_t printed = 0;
  std::size_t matched = 0;
  for (const std::size_t root : forest.roots()) {
    if (!is_root(records[root])) continue;
    ++matched;
    if (printed >= max_roots) continue;
    ++printed;
    print_node(root, 0);
  }
  if (matched > printed) {
    std::cout << "(" << matched - printed << " more tree(s) elided)\n";
  }
  if (matched == 0) std::cout << "(no matching spans)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();
  // --json <path> emits the report's headline numbers as a BenchReport
  // (obs_report.* metrics); --quick is accepted for the smoke harness —
  // the tour is already quick, so it only marks the report.
  const auto opts = obs::parse_bench_options(argc, argv);
  const auto platform = hw::make_fugaku_testbed_platform();

  cluster::SimNodeOptions options;
  options.seed = Seed{2021};
  options.trace_capacity = 1 << 16;

  auto linux_node = cluster::SimNode::make_linux_node(
      platform, linuxk::make_fugaku_linux_config(platform), options);
  auto mk_node = cluster::SimNode::make_multikernel_node(
      platform, linuxk::make_fugaku_linux_config(platform),
      mck::McKernelConfig::defaults(), options);

  run_campaign(*linux_node);
  run_campaign(*mk_node);

  // ---- Ranked counter comparison -------------------------------------
  const auto ls = linux_node->counters();
  const auto ms = mk_node->counters();
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& c : ls.counters) merged[c.name].first = c.value;
  for (const auto& c : ms.counters) merged[c.name].second = c.value;
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      ranked(merged.begin(), merged.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return std::max(a.second.first, a.second.second) >
                            std::max(b.second.first, b.second.second);
                   });
  print_banner(std::cout,
               "Kernel counters: Linux node vs multi-kernel node "
               "(ranked by count)");
  TextTable t({"counter", "Linux node", "multi-kernel node"});
  t.set_align(0, Align::kLeft);
  for (const auto& [name, values] : ranked) {
    auto fmt = [](std::uint64_t v) {
      return v == 0 ? std::string("-")
                    : TextTable::fmt_int(static_cast<long long>(v));
    };
    t.add_row({name, fmt(values.first), fmt(values.second)});
  }
  t.print(std::cout);

  // ---- Offload round trips -------------------------------------------
  // The split (marshal, both IKC hops, proxy wakeup and execute) is the
  // offload:* span trees of the span report below.
  const OnlineStats& rtt = mk_node->offloader()->roundtrip_us();
  print_banner(std::cout, "Syscall offload round trips (multi-kernel node)");
  std::cout << "round trips=" << rtt.count()
            << "  mean=" << TextTable::fmt(rtt.mean(), 2)
            << " us  min=" << TextTable::fmt(rtt.min(), 2)
            << " us  max=" << TextTable::fmt(rtt.max(), 2) << " us\n";

  // ---- Span report ----------------------------------------------------
  const auto linux_records = linux_node->trace().snapshot();
  const auto records = mk_node->trace().snapshot();
  struct LabelStats {
    std::uint64_t count = 0;
    double total_us = 0.0;
    std::uint64_t children = 0;
  };
  std::map<std::string, LabelStats> by_label;
  std::uint64_t roots = 0;
  for (const auto& r : records) {
    if (r.span == 0) continue;  // unspanned event records
    auto& s = by_label[r.label];
    ++s.count;
    s.total_us += r.duration.to_us();
    if (r.parent != 0) {
      ++s.children;
    } else {
      ++roots;
    }
  }
  print_banner(std::cout, "Span report (trace buffer, grouped by label)");
  std::cout << "trace records=" << records.size()
            << "  dropped=" << mk_node->trace().dropped()
            << "  root spans=" << roots << "\n";
  std::vector<std::pair<std::string, LabelStats>> spans(by_label.begin(),
                                                        by_label.end());
  std::stable_sort(spans.begin(), spans.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.total_us > b.second.total_us;
                   });
  TextTable st({"span label", "count", "total (us)", "child spans"});
  st.set_align(0, Align::kLeft);
  for (const auto& [label, s] : spans) {
    st.add_row({label, TextTable::fmt_int(static_cast<long long>(s.count)),
                TextTable::fmt(s.total_us, 1),
                TextTable::fmt_int(static_cast<long long>(s.children))});
  }
  st.print(std::cout);

  // ---- Page-fault / TLB-shootdown span trees --------------------------
  const auto memory_root = [](const sim::TraceRecord& r) {
    return r.label.rfind("fault:", 0) == 0 || r.label.rfind("unmap:", 0) == 0;
  };
  print_span_trees(linux_records,
                   "Page-fault & unmap span trees (Linux node)",
                   memory_root, 4);
  print_span_trees(records,
                   "Page-fault span trees (multi-kernel node)",
                   memory_root, 4);

  // ---- Collective / BSP phase span trees ------------------------------
  sim::TraceBuffer bsp_trace(1 << 14);
  MiniSolver solver;
  const cluster::JobConfig bsp_job{.nodes = 64, .ranks_per_node = 4,
                                   .threads_per_rank = 12};
  const auto linux_env = cluster::make_fugaku_linux_env();
  const auto mck_env = cluster::make_fugaku_mckernel_env();
  cluster::BspEngine linux_engine(linux_env, bsp_job, Seed{7});
  linux_engine.set_trace(&bsp_trace, /*track=*/0);
  const auto linux_bsp = linux_engine.run(solver);
  cluster::BspEngine mck_engine(mck_env, bsp_job, Seed{7});
  mck_engine.set_trace(&bsp_trace, /*track=*/1);
  const auto mck_bsp = mck_engine.run(solver);
  const auto bsp_records = bsp_trace.snapshot();
  print_span_trees(
      bsp_records, "BSP collective-phase span trees (rank track 0 = Linux)",
      [](const sim::TraceRecord& r) {
        return r.core == 0 && r.label.rfind("bsp:", 0) == 0;
      },
      2);

  // ---- Merged Chrome trace export -------------------------------------
  std::vector<sim::ChromeTraceGroup> groups;
  groups.push_back(
      {linux_records,
       sim::ChromeTraceOptions{.pid = 0, .process_name = "linux-node"}});
  groups.push_back(
      {records,
       sim::ChromeTraceOptions{.pid = 1,
                               .process_name = "multikernel-node"}});
  groups.push_back(
      {bsp_records,
       sim::ChromeTraceOptions{
           .pid = 2,
           .process_name = "bsp-cluster",
           .thread_names = {{0, "rank 0 (fugaku-linux)"},
                            {1, "rank 0 (fugaku-mckernel)"}}}});
  const JsonValue doc = sim::chrome_trace_document(groups);
  if (const std::string err = sim::validate_chrome_trace(doc); !err.empty()) {
    std::cerr << "merged Chrome trace failed validation: " << err << "\n";
    return 1;
  }
  const std::string path = "obs_report_trace.json";
  std::ofstream out(path);
  out << doc.dump_pretty() << "\n";
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "\nMerged Chrome trace (validated) written to " << path
            << " — open it at\nhttps://ui.perfetto.dev: offloaded syscalls, "
               "page-fault/TLB-shootdown trees\nand named BSP rank tracks "
               "share one timeline across three pids.\n";

  // ---- Machine-readable report (--json) -------------------------------
  obs::BenchReport report("obs_report", opts.quick, options.seed.value);
  report.add_metric("obs_report.linux_trace_records", "count",
                    static_cast<double>(linux_records.size()));
  report.add_metric("obs_report.mk_trace_records", "count",
                    static_cast<double>(records.size()));
  report.add_metric("obs_report.mk_root_spans", "count",
                    static_cast<double>(roots));
  report.add_metric("obs_report.bsp_trace_records", "count",
                    static_cast<double>(bsp_records.size()));
  report.add_metric("obs_report.bsp_linux_total_ms", "ms",
                    linux_bsp.total.to_ms());
  report.add_metric("obs_report.bsp_mck_total_ms", "ms",
                    mck_bsp.total.to_ms());
  // Every node counter under its raw dotted name; the OpenMetrics
  // exposition preserves the same names in its `name` label, so the two
  // exports stay round-trippable (pinned by the ObsRoundTrip test).
  obs::ts::add_registry_metrics(report, ls, "counter.linux");
  obs::ts::add_registry_metrics(report, ms, "counter.mk");
  report.add_metric(
      "host.wall_s", "s",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count());
  obs::maybe_write_report(report, opts);
  return 0;
}
