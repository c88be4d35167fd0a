// Machine-scale FWQ campaigns (Figure 4).
//
// The paper runs FWQ on every core of up to 158,976 nodes for ten ~6 min
// measurements, keeps all samples for the CDF, and saves raw data only for
// the 100 worst nodes. Generating ~4e11 individual iterations is neither
// possible nor necessary: per node we draw each noise source's *hit count*
// over the whole campaign (Poisson) and materialize only the hit
// iterations individually; the ocean of unhit iterations enters the
// histogram as a weighted bulk (with a small representative sample of the
// jitter floor). Per-node worst values drive the worst-100 selection.
//
// Node simulations run across the host scheduler behind parallel_for
// (common/parallel.h); campaigns issued from inside another parallel
// region (e.g. a bench plan point) nest as child task groups.
// Each node's randomness comes from its own split of the campaign seed and
// each worker writes into index-addressed per-shard slots that are merged
// in rank order, so results are byte-identical for any `threads` value
// (DESIGN §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "noise/analytic.h"
#include "noise/metrics.h"
#include "obs/registry.h"
#include "obs/timeseries/timeseries.h"

namespace hpcos::cluster {

struct FwqCampaignConfig {
  std::int64_t nodes = 16;
  int app_cores = 48;
  SimTime work_quantum = SimTime::from_ms(6.5);
  // Total measured wall time per core (paper: 10 x ~6 min = 1 h). Must
  // cover at least one work quantum; an empty campaign would silently
  // report zero noise.
  SimTime duration_per_core = SimTime::sec(3600);
  // Cap on individually-materialized hits per (node, source); the rest
  // enters the histogram as a weighted bulk plus one max-of-k tail draw.
  std::uint64_t max_materialized_hits = 4096;
  // Host worker threads for the per-node loop: 0 = default_parallelism(),
  // 1 = serial.
  std::size_t threads = 0;
  // Nodes per accumulation shard. Shard boundaries — not the host thread
  // count — define the floating-point summation order, which is what makes
  // the result independent of `threads`. The default of 64 comes from the
  // bench_fig4 "nodes_per_shard sweep": it sits in the flat center of the
  // merge-overhead vs scheduling-granularity curve (8..1024 measured), and
  // at full Fugaku scale still yields ~2,500 shards — enough granularity
  // for any plausible host pool while merge cost stays negligible.
  std::int64_t nodes_per_shard = 64;
  // Optional observability sink. Folded into serially after the parallel
  // phase (fwq.campaign.nodes/.iterations, fwq.topk.pushes/.evictions) —
  // shards count locally, the Registry stays single-writer.
  obs::Registry* registry = nullptr;
  // Streaming timeline (off by default): per-source overhead series and
  // distributions, and the Figure 4 node x time heatmap. Event
  // timestamps come from a dedicated RNG substream (node split 2), so
  // enabling the timeline never perturbs the existing draw sequences —
  // every non-timeline number in the result is bit-identical either way.
  bool timeline = false;
  Seed seed{2021};
};

// Where one campaign's overhead went: total time stolen by one noise
// source across every node and core, as accumulated into the CDF. The
// stolen_us terms mirror the overhead sums exactly (same shard order), so
//   sum(per_source[i].stolen_us) == stats.noise_rate * t_min_us * samples
// up to floating-point reassociation — the attribution ledger's
// reconciliation identity (obs/attrib).
struct SourceAttribution {
  std::string source;  // spec name; "jitter-floor" for the non-hit bulk
  noise::SourceKind kind = noise::SourceKind::kHardware;
  noise::SourceScope scope = noise::SourceScope::kPerCore;
  double stolen_us = 0.0;          // sum of (T_i - quantum) it caused
  std::uint64_t hit_iterations = 0;  // iterations it lengthened
  double worst_us = 0.0;           // worst single overhead it caused
};

// Streaming view of one campaign (present when config.timeline is set).
// All containers parallel FwqCampaignResult::per_source (profile order,
// jitter floor last). Each series has 96 buckets of
// ceil(duration_per_core / 96), so in-window samples never coarsen it, and
// the heatmap is 32 node bins (fewer for fewer nodes) x 96 time bins.
// Per-source series sums mirror the ledger's stolen_us exactly (same
// overhead terms, shard-order merge), which is the reconciliation the
// timeline_smoke job checks to <1e-9 relative error.
struct FwqTimeline {
  bool enabled = false;
  SimTime duration;  // campaign window [0, duration_per_core)
  // Overhead (us) over virtual time, one series per ledger slot.
  std::vector<obs::ts::TimeSeries> per_source;
  // Per-iteration overhead (us) distributions, one per ledger slot, in the
  // duration_us_histogram() layout.
  std::vector<LogHistogram> sketches;
  // Figure 4 analogue: node-bin x time-bin overhead (us) grid.
  obs::ts::NodeTimeGrid heatmap;
};

struct FwqCampaignResult {
  // All iteration lengths (us), log-binned for the CDF plot.
  LogHistogram cdf{1000.0, 1e6, 2048};
  noise::NoiseStats stats;
  std::uint64_t total_iterations = 0;
  // Worst (longest) iteration of each of the 100 worst nodes (fewer when
  // the campaign has fewer nodes), sorted descending (us).
  std::vector<double> worst_node_max_us;
  // Per-source ledger in profile order (inactive sources kept with zero
  // counts so the layout is profile-stable), with the jitter floor last.
  std::vector<SourceAttribution> per_source;
  FwqTimeline timeline;
};

FwqCampaignResult run_fwq_campaign(const noise::AnalyticNoiseProfile& profile,
                                   const FwqCampaignConfig& config);

}  // namespace hpcos::cluster
