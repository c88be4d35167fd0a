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
  int worst_nodes_to_keep = 100;
  // Representative jitter-floor samples materialized per node.
  int floor_samples_per_node = 32;
  // Cap on individually-materialized hits per (node, source); the rest
  // enters the histogram as a weighted bulk plus one max-of-k tail draw.
  std::uint64_t max_materialized_hits = 4096;
  // Per-core duration jitter within a node-wide (kAllCores) noise event.
  // 0 (default) keeps the historical model: one shared duration sample
  // stalls every core identically. > 0 multiplies each core's share of a
  // materialized hit by an independent lognormal(median=1, sigma) factor —
  // closer to real collective OS activity, where cores enter/leave the
  // event at slightly different times. Results remain deterministic for a
  // fixed seed and independent of `threads` either way.
  double all_cores_jitter_sigma = 0.0;
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
  // Capacity K of each shard's bounded worst-node heap. The campaign never
  // buffers O(nodes) per-node maxima: each shard keeps its K largest and
  // the merge selects the global worst-N from those. 0 derives K from
  // worst_nodes_to_keep (the smallest exact value); smaller explicit
  // values trade exactness of the worst-N tail for memory.
  int worst_heap_capacity = 0;
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
  // Ring capacity (buckets) of each per-source series. The base resolution
  // is timeline_resolution, or duration_per_core / timeline_buckets when
  // zero; a finer explicit resolution exercises the 2x auto-coarsening.
  std::size_t timeline_buckets = 96;
  SimTime timeline_resolution = SimTime::zero();
  // Heatmap grid shape (rows clamp to the node count).
  std::size_t heatmap_rows = 32;
  std::size_t heatmap_cols = 96;
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
// jitter floor last). Per-source series sums mirror the ledger's stolen_us
// exactly (same overhead terms, shard-order merge), which is the
// reconciliation the timeline_smoke job checks to <1e-9 relative error.
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
  // Worst (longest) iteration per retained node, sorted descending (us).
  std::vector<double> worst_node_max_us;
  // Per-source ledger in profile order (inactive sources kept with zero
  // counts so the layout is profile-stable), with the jitter floor last.
  std::vector<SourceAttribution> per_source;
  FwqTimeline timeline;
};

FwqCampaignResult run_fwq_campaign(const noise::AnalyticNoiseProfile& profile,
                                   const FwqCampaignConfig& config);

}  // namespace hpcos::cluster
