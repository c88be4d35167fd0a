// bench_sched — parallel_for scheduler microbenchmark.
//
// Measures flat vs. nested parallel_for throughput over a deterministic
// RNG workload and reports the scheduler's event counts over the run as
// host.parallel.<event>.count, each the run's delta of one host-counter
// table entry (obs/prof/counters.h). Two kinds of output:
//
//   * Determinism gates: sched.*.checksum / sched.*.items are pure
//     functions of the seed (index-addressed slots summed in index
//     order), so they must match the committed baseline bitwise-ish
//     (default tolerance) on every machine and thread count.
//   * Host-behavior telemetry, named host.* so it is never judged:
//     throughput is wall-clock, and the scheduler counts depend on pool
//     size and OS scheduling. On a 1-CPU runner the flat/nested
//     throughput ratio carries no signal; see EXPERIMENTS.md
//     "Scheduler".
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/bench_report.h"
#include "obs/prof/counters.h"

namespace {

using namespace hpcos;

// Deterministic per-item work: a short lognormal accumulation from the
// item's own counter-based stream — the same shape (and thread-count
// independence) as a campaign node simulation, just cheaper.
double item_work(Seed seed, std::uint64_t item, int draws) {
  RngStream rng(seed, item);
  double acc = 0.0;
  for (int d = 0; d < draws; ++d) acc += rng.lognormal(2.0, 0.4);
  return acc;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::parse_bench_options(argc, argv);
  obs::BenchReport report("bench_sched", opts.quick, 0x5CED);
  const bool q = opts.quick;

  const std::size_t items = q ? (1u << 13) : (1u << 16);
  const int draws = q ? 16 : 64;
  const int rounds = q ? 3 : 10;
  const std::size_t outer = 16;  // nested: outer points x inner trials
  const Seed seed{0x5CED};

  print_banner(std::cout, "Scheduler microbenchmark: flat vs nested "
                          "parallel_for, scheduler counters");
  std::cout << "pool capacity " << parallel_capacity() << " (workers + "
            << "caller), default_parallelism " << default_parallelism()
            << ", items " << items << ", rounds " << rounds << "\n";

  const obs::prof::HostCounterSnapshot table_before =
      obs::prof::host_counter_snapshot();

  // Flat: one top-level parallel_for over all items. Threads are pinned
  // to the full pool capacity (workers + caller) rather than
  // default_parallelism(): on a 1-CPU affinity mask the default is 1 and
  // parallel_for would run inline, leaving the scheduler counters below
  // vacuously zero. Checksums are thread-count invariant either way.
  const std::size_t bench_threads = parallel_capacity();
  std::vector<double> flat_slots(items, 0.0);
  const auto t_flat = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    parallel_for(items, [&](std::size_t i) {
      flat_slots[i] = item_work(seed, i, draws);
    }, bench_threads);
  }
  const double flat_s = seconds_since(t_flat);
  double flat_checksum = 0.0;
  for (double v : flat_slots) flat_checksum += v;  // index order: stable

  // Nested: outer points, each running its inner items through a nested
  // parallel_for — run_plan + relative_performance's composition. The
  // inner items compute the same values as the flat pass, so the merged
  // checksum must agree with the flat one exactly.
  std::vector<double> nested_slots(items, 0.0);
  const std::size_t per_outer = items / outer;
  const auto t_nested = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    parallel_for(outer, [&](std::size_t p) {
      parallel_for(per_outer, [&](std::size_t i) {
        const std::size_t item = p * per_outer + i;
        nested_slots[item] = item_work(seed, item, draws);
      }, bench_threads);
    }, bench_threads);
  }
  const double nested_s = seconds_since(t_nested);
  double nested_checksum = 0.0;
  for (double v : nested_slots) nested_checksum += v;

  const obs::prof::HostCounterSnapshot table_after =
      obs::prof::host_counter_snapshot();
  // Name-sorted, like every other counter listing.
  std::vector<std::pair<std::string, std::uint64_t>> sched_counts;
  for (const char* name : {"parallel.chunks", "parallel.groups",
                           "parallel.nested_groups", "parallel.steals",
                           "parallel.wakeups"}) {
    sched_counts.emplace_back(
        std::string(name) + ".count",
        table_after.value(name) - table_before.value(name));
  }

  const double total_items = static_cast<double>(items) * rounds;
  TextTable t({"pass", "wall (s)", "items/s", "checksum"});
  t.add_row({"flat", TextTable::fmt(flat_s, 3),
             TextTable::fmt_sci(total_items / flat_s, 3),
             TextTable::fmt(flat_checksum, 6)});
  t.add_row({"nested", TextTable::fmt(nested_s, 3),
             TextTable::fmt_sci(total_items / nested_s, 3),
             TextTable::fmt(nested_checksum, 6)});
  t.print(std::cout);

  TextTable c({"scheduler counter", "value"});
  for (const auto& [name, value] : sched_counts) {
    c.add_row({name, TextTable::fmt_int(static_cast<long long>(value))});
  }
  c.print(std::cout);

  if (flat_checksum != nested_checksum) {
    std::cerr << "FAIL: nested checksum diverged from flat ("
              << nested_checksum << " vs " << flat_checksum << ")\n";
    return 1;
  }

  // Deterministic gates (machine-independent).
  report.add_metric("sched.flat.checksum", "value", flat_checksum);
  report.add_metric("sched.nested.checksum", "value", nested_checksum);
  report.add_metric("sched.flat.items", "count", static_cast<double>(items));
  report.add_metric("sched.outer.points", "count",
                    static_cast<double>(outer));
  // Host-behavior telemetry (host.*, never judged).
  report.add_metric("host.flat.items_per_s", "rate", total_items / flat_s);
  report.add_metric("host.nested.items_per_s", "rate",
                    total_items / nested_s);
  report.add_metric("host.nested_vs_flat.ratio", "ratio",
                    (total_items / nested_s) / (total_items / flat_s));
  report.add_metric("host.capacity", "count",
                    static_cast<double>(parallel_capacity()));
  for (const auto& [name, value] : sched_counts) {
    report.add_metric("host." + name, "count", static_cast<double>(value));
  }

  obs::maybe_write_report(report, opts);
  return 0;
}
