// Shared driver for the application-level figures (5, 6, 7).
//
// For each (workload, node count): run the workload under the platform's
// Linux environment and its McKernel environment with paired seeds, and
// report McKernel's relative performance with Linux normalized to 1.0 —
// the exact format of the paper's bar charts.
#pragma once

#include <algorithm>
#include <cctype>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "cluster/bsp.h"
#include "common/parallel.h"
#include "common/table.h"
#include "obs/bench_report.h"
#include "obs/prof/counters.h"
#include "obs/prof/prof.h"

namespace hpcos::bench {

struct FigureRow {
  std::string workload;
  std::int64_t nodes = 0;
  double mckernel_relative = 0.0;  // Linux == 1.0
  double stddev = 0.0;
  double paper_value = 0.0;  // approximate value read off the figure
};

inline FigureRow run_point(const std::string& workload,
                           apps::PlatformKind platform,
                           const cluster::OsEnvironment& linux_env,
                           const cluster::OsEnvironment& mck_env,
                           std::int64_t nodes, double paper_value,
                           int trials = 3, Seed seed = Seed{20211114}) {
  PROF_SCOPE("bench.point");
  const auto w = apps::make_workload(workload, platform);
  const auto job = apps::job_geometry(workload, platform, nodes);
  const auto rel = cluster::relative_performance(*w, linux_env, mck_env, job,
                                                 trials, seed);
  return FigureRow{.workload = workload,
                   .nodes = nodes,
                   .mckernel_relative = rel.mean_ratio,
                   .stddev = rel.stddev_ratio,
                   .paper_value = paper_value};
}

// One (workload, node count) measurement with the approximate value read
// off the paper's figure for the comparison column.
struct PlanPoint {
  std::int64_t nodes = 0;
  double paper = 0.0;
};
using FigurePlan =
    std::vector<std::pair<std::string, std::vector<PlanPoint>>>;

// Run every (workload, nodes) point of a figure across the host
// scheduler. Points are independent (per-point workload instance and
// paired seeded engines) and each writes its own row slot, so row order
// — and every number in it — is identical to the serial run. Each
// point's relative_performance trials loop is itself a parallel_for;
// the scheduler composes the two levels (idle participants claim inner
// trial chunks) instead of the inner loop degrading to serial inside a
// worker.
inline std::vector<FigureRow> run_plan(const FigurePlan& plan,
                                       apps::PlatformKind platform,
                                       const cluster::OsEnvironment& linux_env,
                                       const cluster::OsEnvironment& mck_env,
                                       std::size_t threads = 0,
                                       int trials = 3) {
  struct FlatPoint {
    const std::string* workload;
    PlanPoint point;
  };
  std::vector<FlatPoint> flat;
  for (const auto& [name, points] : plan) {
    for (const auto& p : points) flat.push_back({&name, p});
  }
  std::vector<FigureRow> rows(flat.size());
  // Live progress feed (--progress heartbeats): plan points are this
  // driver's completion units. Statistics only, never results.
  static obs::prof::HostCounter* const units_done =
      obs::prof::host_counter(obs::prof::kLiveUnitsDone);
  obs::prof::host_counter(obs::prof::kLiveUnitsTotal)->add(flat.size());
  parallel_for(
      flat.size(),
      [&](std::size_t i) {
        rows[i] = run_point(*flat[i].workload, platform, linux_env, mck_env,
                            flat[i].point.nodes, flat[i].point.paper, trials);
        units_done->add(1);
      },
      threads);
  return rows;
}

// Smoke-mode plan: only the smallest node count of each workload (paired
// with trials=1 this keeps the bench_smoke job seconds-long).
inline FigurePlan quick_plan(const FigurePlan& plan) {
  FigurePlan out;
  for (const auto& [name, points] : plan) {
    if (!points.empty()) out.push_back({name, {points.front()}});
  }
  return out;
}

// One BenchReport metric per figure row: `<workload>.n<nodes>.relative`.
inline void add_figure_metrics(obs::BenchReport& report,
                               const std::vector<FigureRow>& rows) {
  for (const auto& r : rows) {
    std::string slug = r.workload;
    std::transform(slug.begin(), slug.end(), slug.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    report.add_metric(slug + ".n" + std::to_string(r.nodes) + ".relative",
                      "ratio", r.mckernel_relative);
  }
}

inline void print_figure(const std::string& title,
                         const std::vector<FigureRow>& rows) {
  print_banner(std::cout, title);
  TextTable t({"workload", "nodes", "McKernel vs Linux", "stddev",
               "paper (approx)"});
  for (const auto& r : rows) {
    t.add_row({r.workload, TextTable::fmt_int(r.nodes),
               TextTable::fmt(r.mckernel_relative, 3),
               TextTable::fmt(r.stddev, 3),
               r.paper_value > 0 ? TextTable::fmt(r.paper_value, 2) : "-"});
  }
  t.print(std::cout);
}

}  // namespace hpcos::bench
