// OpenMetrics-style text exposition of a Registry (+ optional SeriesSet).
//
// The paper's measurement stack ultimately feeds dashboards; the simulated
// stack mirrors that with a scrape-format exporter. The format is the
// OpenMetrics subset that matters for round-tripping:
//
//   # TYPE hpcos_counter counter
//   hpcos_counter_total{name="ikc.to_host.posted"} 42
//   # TYPE hpcos_histogram summary
//   hpcos_histogram_count{name="offload.rpc_us"} 1024
//   hpcos_histogram{name="offload.rpc_us",quantile="0.5"} 3.2
//   # TYPE hpcos_series gauge
//   hpcos_series{name="bsp.compute_us",stat="sum"} 8.1e6
//   # EOF
//
// Raw dotted counter names are preserved verbatim in the `name` label
// (never mangled into the metric name), so a parser can recover exactly
// the names `obs_report --json` and the BenchReport emit — the agreement
// the round-trip test in tests/test_timeseries.cpp pins with the tests'
// strict parser (tests/test_support.h).
#pragma once

#include <string>

#include "obs/bench_report.h"
#include "obs/registry.h"
#include "obs/timeseries/timeseries.h"

namespace hpcos::obs::ts {

// Build the exposition text. Counters print as exact integers; histogram
// entries as a summary (count + p50/p99/max); each series contributes
// sum/count/resolution_us gauges (bucket-level data goes through the
// BenchReport JSON dump instead — scrape output stays O(metrics)).
std::string openmetrics_text(const Registry& registry,
                             const SeriesSet* series = nullptr);

// Fold every Registry counter into a BenchReport as
// `<prefix>.<counter name>` (unit "count"). Counters are integers, so the
// JSON round trip is exact — the other half of the naming round-trip test.
void add_registry_metrics(BenchReport& report, const Registry& registry,
                          const std::string& prefix = "counter");

}  // namespace hpcos::obs::ts
