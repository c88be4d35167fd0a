// Deterministic sampled span tracing for full-scale runs.
//
// Full-duration span tracing scales its memory with nodes × duration:
// at the paper's 158,976-node full-machine scale even a modest per-node
// ring is hundreds of GiB of TraceRecords. The sampler decouples the two
// costs:
//
//   * Distributions cover every root and stay bounded: every root span's
//     duration feeds a per-label LogHistogram in the duration_us_histogram()
//     layout (bin edges 1 % apart, mergeable), so p50/p99/p999 latency per
//     span label cover the full population in a fixed 18.5 KB per label no
//     matter how long the run is.
//   * Raw trees are SAMPLED: each root is kept with probability `rate`
//     by a per-(seed, node) RngStream, optionally thinned further by an
//     Algorithm-R reservoir of at most `max_roots_per_node` roots; a
//     kept root brings its whole tree (children and all), so sampled
//     records remain valid SpanForest input for attribution and Chrome
//     export.
//
// Determinism: sample_node() is a pure function of (config, node_index,
// records) — the RNG is derived from (seed, node) alone, never from a
// global counter or host state. Sampling nodes in parallel into
// node-indexed slots therefore yields bit-identical results for any host
// thread count, the same contract as every campaign merge (DESIGN §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "sim/trace.h"

namespace hpcos::obs::live {

struct SpanSamplerConfig {
  std::uint64_t seed = 0;
  // Probability a root span's tree is retained. 1.0 keeps everything
  // (sampled output == full trace — the exactness test pins this).
  double rate = 1.0;
  // Reservoir cap on retained roots per node after rate sampling;
  // 0 = unlimited. This is the hard memory bound for long runs.
  std::size_t max_roots_per_node = 0;
};

// One node's sampled trace. `sketches` cover every root seen (exact
// counts); `records` hold only the kept trees, whole and in root order.
struct NodeSample {
  std::uint64_t roots_seen = 0;
  std::uint64_t roots_kept = 0;
  std::uint64_t records_kept = 0;
  std::vector<sim::TraceRecord> records;
  // Root-span label -> histogram of root durations in microseconds.
  std::map<std::string, LogHistogram> sketches;
};

// Sample one node's record snapshot. Pure: no global state, no host
// randomness; safe to call concurrently for distinct nodes.
NodeSample sample_node(const SpanSamplerConfig& cfg, std::uint64_t node_index,
                       const std::vector<sim::TraceRecord>& records);

}  // namespace hpcos::obs::live
