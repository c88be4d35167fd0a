#include "cluster/fwq_campaign.h"

#include <algorithm>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/prof/counters.h"
#include "obs/prof/mem.h"
#include "obs/prof/prof.h"

namespace hpcos::cluster {
namespace {

// The paper persists raw data for the 100 worst nodes. Each shard's
// bounded heap keeps that many: the smallest capacity that keeps the
// global worst-100 exact, since any shard could own all of them.
constexpr std::size_t kWorstNodes = 100;
// Representative jitter-floor samples materialized per node.
constexpr int kFloorSamples = 32;
// Timeline shape: per-source series of kTimelineBuckets buckets, and a
// kHeatmapRows x kHeatmapCols node x time heatmap.
constexpr std::size_t kTimelineBuckets = 96;
constexpr std::size_t kHeatmapRows = 32;
constexpr std::size_t kHeatmapCols = 96;

// Accumulator for one contiguous run of nodes. Each parallel worker owns
// exactly one shard at a time and sums its nodes in rank order; shards are
// then merged in shard order, so the floating-point summation order — and
// therefore the result — is independent of the host thread count.
struct ShardAccumulator {
  ShardAccumulator(const LogHistogram& layout, std::size_t attrib_slots)
      : cdf(layout),
        stolen_us(attrib_slots, 0.0),
        hit_iterations(attrib_slots, 0),
        worst_us(attrib_slots, 0.0) {
    worst.reserve(kWorstNodes);
  }

  LogHistogram cdf;  // same binning as FwqCampaignResult::cdf
  double overhead_sum_us = 0.0;  // sum of (T_i - quantum) across everything
  // Per-source ledger slots: profile source index, plus one trailing slot
  // for the jitter floor. Each overhead term added to overhead_sum_us is
  // mirrored into exactly one slot, so the slot totals reconcile with the
  // campaign noise_rate up to fp reassociation.
  std::vector<double> stolen_us;
  std::vector<std::uint64_t> hit_iterations;
  std::vector<double> worst_us;
  SimTime min_time = SimTime::max();
  SimTime max_time = SimTime::zero();
  std::uint64_t iterations = 0;

  void attribute(std::size_t slot, double overhead_us,
                 std::uint64_t iterations_hit) {
    stolen_us[slot] += overhead_us;
    hit_iterations[slot] += iterations_hit;
  }
  void attribute_worst(std::size_t slot, double overhead_us) {
    worst_us[slot] = std::max(worst_us[slot], overhead_us);
  }

  // Bounded worst-node selection: a min-heap of the kWorstNodes largest
  // per-node maxima seen by this shard; the global worst-100 is selected
  // from the shard heaps at merge time. Push/evict counts fold into the
  // registry during the serial merge (the heap itself is shard-local, so
  // no synchronization).
  std::vector<double> worst;  // min-heap (std::greater comparator)
  std::uint64_t topk_pushes = 0;
  std::uint64_t topk_evictions = 0;

  // Optional streaming timeline, accumulated shard-locally like the
  // ledger slots and merged in shard order.
  bool timeline = false;
  std::vector<obs::ts::TimeSeries> series;    // per ledger slot
  std::vector<LogHistogram> sketches;         // per ledger slot
  obs::ts::NodeTimeGrid grid;

  void enable_timeline(const FwqCampaignConfig& config, SimTime resolution,
                       std::size_t slots) {
    timeline = true;
    series.reserve(slots);
    sketches.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      series.emplace_back(resolution, kTimelineBuckets);
      sketches.push_back(duration_us_histogram());
    }
    grid = obs::ts::NodeTimeGrid(config.nodes, config.duration_per_core,
                                 kHeatmapRows, kHeatmapCols);
  }

  // `weight` iterations lost `overhead_us` each at virtual time t on
  // `node`. The series sum adds the same overhead * weight products as the
  // ledger's attribute(), so per-slot totals reconcile.
  void timeline_record(std::size_t slot, std::int64_t node, SimTime t,
                       double overhead_us, std::uint64_t weight) {
    if (!timeline || weight == 0) return;
    series[slot].record_n(t, overhead_us, weight);
    sketches[slot].add_n(std::max(overhead_us, 0.0), weight);
    grid.add(node, t, overhead_us * static_cast<double>(weight));
  }

  void keep_worst(double node_max) {
    ++topk_pushes;
    if (worst.size() < kWorstNodes) {
      worst.push_back(node_max);
      std::push_heap(worst.begin(), worst.end(), std::greater<double>());
      return;
    }
    ++topk_evictions;  // one value (incoming or previous min) is dropped
    if (node_max <= worst.front()) return;
    std::pop_heap(worst.begin(), worst.end(), std::greater<double>());
    worst.back() = node_max;
    std::push_heap(worst.begin(), worst.end(), std::greater<double>());
  }
};

// What a source's hits need that depends only on the campaign, taken once
// per (campaign, source) rather than once per (node, source).
struct SourceConstants {
  // Occurrence process at node scope (mean_interval is per core for
  // kPerCore, per node otherwise):
  //   kPerCore            app_cores independent processes, one core hit
  //   kPerNodeRandomCore  one process, one core hit
  //   kAllCores           one process; every core's iteration is
  //                       lengthened by the SAME occurrence, so each
  //                       arrival yields app_cores identical samples
  //                       rather than app_cores independent arrivals
  std::uint64_t cores_per_hit = 1;
  double hits_mean = 0.0;      // Poisson mean of a node's hit count
  double poisson_param = 0.0;  // RngStream::poisson_param(hits_mean)
  noise::DurationDist::MaxConstants max;  // log(median) and the clamp

  SourceConstants(const noise::NoiseSourceSpec& s,
                  const FwqCampaignConfig& config)
      : max(s.duration.max_constants()) {
    const double interval_ns =
        static_cast<double>(s.mean_interval.count_ns());
    double processes = 1.0;
    switch (s.scope) {
      case noise::SourceScope::kPerCore:
        processes = static_cast<double>(config.app_cores);
        break;
      case noise::SourceScope::kPerNodeRandomCore:
        break;
      case noise::SourceScope::kAllCores:
        cores_per_hit = static_cast<std::uint64_t>(config.app_cores);
        break;
    }
    hits_mean = static_cast<double>(config.duration_per_core.count_ns()) /
                interval_ns * processes;
    poisson_param = RngStream::poisson_param(hits_mean);
  }
};

void simulate_node(const noise::AnalyticNoiseProfile& profile,
                   const FwqCampaignConfig& config,
                   std::uint64_t iters_per_node,
                   const std::vector<SourceConstants>& constants,
                   std::int64_t node, RngStream node_rng,
                   ShardAccumulator& acc) {
  const double quantum_us = config.work_quantum.to_us();
  const std::size_t floor_slot = acc.stolen_us.size() - 1;
  noise::AnalyticNodeSampler sampler(profile, config.app_cores,
                                     node_rng.split(0));
  RngStream rng = node_rng.split(1);
  // Timeline timestamps draw from a dedicated substream: enabling the
  // timeline must not shift any draw in the sampler/rng sequences above
  // (the committed bench baselines depend on them).
  RngStream trng = node_rng.split(2);
  const bool tl = acc.timeline;
  const std::int64_t dur_ns = config.duration_per_core.count_ns();

  double node_max = quantum_us;
  std::uint64_t hit_iterations = 0;

  // Materialize each noise hit as one (or part of one) iteration. A
  // source's ledger slot is its profile index.
  for (const std::size_t slot : sampler.active_sources()) {
    const noise::NoiseSourceSpec& s = profile.sources[slot];
    const SourceConstants& sc = constants[slot];
    const std::uint64_t cores_per_hit = sc.cores_per_hit;
    const std::uint64_t k = rng.poisson(sc.hits_mean, sc.poisson_param);
    // Cap the individually materialized hits; beyond the cap, fold the
    // remainder into bulk statistics via the distribution mean plus one
    // max draw (tail preserved, cost bounded).
    const std::uint64_t materialize =
        std::min<std::uint64_t>(k, config.max_materialized_hits);
    const double log_median = sc.max.log_median;
    // The per-hit loops keep the running sums in locals. overhead_sum_us
    // and stolen_us are added to once per hit, in hit order, because their
    // rounding reaches the results.
    double overhead_sum_us = acc.overhead_sum_us;
    double stolen_us = acc.stolen_us[slot];
    double worst_us = acc.worst_us[slot];
    std::uint64_t slot_hits = acc.hit_iterations[slot];
    if (s.duration.sigma == 0.0 && !tl && materialize > 0) {
      // A constant duration draws nothing, so all `materialize` hits have
      // the same iteration length: one histogram update, one worst.
      const double t_us =
          quantum_us + s.duration.sample(rng, log_median).to_us();
      const double overhead_us =
          (t_us - quantum_us) * static_cast<double>(cores_per_hit);
      acc.cdf.add_n(t_us, cores_per_hit * materialize);
      for (std::uint64_t i = 0; i < materialize; ++i) {
        overhead_sum_us += overhead_us;
        stolen_us += overhead_us;
      }
      slot_hits += cores_per_hit * materialize;
      worst_us = std::max(worst_us, t_us - quantum_us);
      node_max = std::max(node_max, t_us);
      hit_iterations += cores_per_hit * materialize;
    } else {
      // The hits in chunks: one batch draw and one histogram call per
      // chunk, then the sums and the timeline per hit, in hit order.
      constexpr std::uint64_t kChunk = 256;
      SimTime draws[kChunk];
      double t_us[kChunk];
      for (std::uint64_t done = 0; done < materialize;) {
        const auto len = static_cast<std::size_t>(
            std::min(kChunk, materialize - done));
        s.duration.sample_n(rng, log_median, std::span(draws, len));
        for (std::size_t j = 0; j < len; ++j) {
          t_us[j] = quantum_us + draws[j].to_us();
        }
        acc.cdf.add_each(std::span<const double>(t_us, len), cores_per_hit);
        for (std::size_t j = 0; j < len; ++j) {
          const double overhead_us =
              (t_us[j] - quantum_us) * static_cast<double>(cores_per_hit);
          overhead_sum_us += overhead_us;
          stolen_us += overhead_us;
          worst_us = std::max(worst_us, t_us[j] - quantum_us);
          node_max = std::max(node_max, t_us[j]);
          if (tl) {
            // One event time per hit, shared across cores for kAllCores.
            const SimTime t_event =
                trng.uniform_time(SimTime::zero(), config.duration_per_core);
            acc.timeline_record(slot, node, t_event, t_us[j] - quantum_us,
                                cores_per_hit);
          }
        }
        slot_hits += cores_per_hit * len;
        hit_iterations += cores_per_hit * len;
        done += len;
      }
    }
    acc.overhead_sum_us = overhead_sum_us;
    acc.stolen_us[slot] = stolen_us;
    acc.worst_us[slot] = worst_us;
    acc.hit_iterations[slot] = slot_hits;
    if (k > materialize) {
      const std::uint64_t rest = k - materialize;
      const double mean_us = s.duration.mean().to_us();
      acc.cdf.add_n(quantum_us + mean_us, rest * cores_per_hit);
      acc.overhead_sum_us +=
          mean_us * static_cast<double>(rest * cores_per_hit);
      acc.attribute(slot, mean_us * static_cast<double>(rest * cores_per_hit),
                    rest * cores_per_hit);
      if (tl) {
        // Spread the bulk across evenly-spaced midpoints (deterministic,
        // no RNG): the bulk is a rate, not individual events, so a uniform
        // spread is the faithful timeline shape.
        const std::uint64_t total = rest * cores_per_hit;
        const std::uint64_t points =
            std::min<std::uint64_t>(rest, kTimelineBuckets);
        std::uint64_t spread = 0;
        for (std::uint64_t j = 0; j < points; ++j) {
          const std::uint64_t w =
              (j == points - 1) ? total - spread : total / points;
          spread += w;
          const SimTime t = SimTime::ns(
              dur_ns * (2 * static_cast<std::int64_t>(j) + 1) /
              (2 * static_cast<std::int64_t>(points)));
          acc.timeline_record(slot, node, t, mean_us, w);
        }
      }
      const double tail_sample_us =
          s.duration.sample_max(rest, rng, sc.max).to_us();
      const double tail_us = quantum_us + tail_sample_us;
      acc.attribute_worst(slot, tail_sample_us);
      node_max = std::max(node_max, tail_us);
      hit_iterations += rest * cores_per_hit;
    }
  }

  // Jitter floor for the unhit bulk.
  const std::uint64_t unhit =
      iters_per_node > hit_iterations ? iters_per_node - hit_iterations : 0;
  if (unhit > 0) {
    const std::uint64_t per_rep =
        unhit / static_cast<std::uint64_t>(kFloorSamples);
    std::uint64_t accounted = 0;
    for (int i = 0; i < kFloorSamples; ++i) {
      const std::uint64_t weight =
          (i == kFloorSamples - 1) ? unhit - accounted : per_rep;
      if (weight == 0) continue;
      const double t_us =
          sampler.sample_floor_iteration(config.work_quantum).to_us();
      acc.cdf.add_n(t_us, weight);
      acc.overhead_sum_us +=
          (t_us - quantum_us) * static_cast<double>(weight);
      acc.attribute(floor_slot,
                    (t_us - quantum_us) * static_cast<double>(weight),
                    t_us > quantum_us ? weight : 0);
      if (tl) {
        // Floor reps at evenly-spaced midpoints across the window.
        const SimTime t =
            SimTime::ns(dur_ns * (2 * i + 1) / (2 * kFloorSamples));
        acc.timeline_record(floor_slot, node, t, t_us - quantum_us, weight);
      }
      acc.attribute_worst(floor_slot, t_us - quantum_us);
      node_max = std::max(node_max, t_us);
      acc.min_time = std::min(acc.min_time, SimTime::from_us(t_us));
      accounted += weight;
    }
  } else {
    acc.min_time = std::min(acc.min_time, config.work_quantum);
  }

  acc.max_time = std::max(acc.max_time, SimTime::from_us(node_max));
  acc.iterations += iters_per_node;
  acc.keep_worst(node_max);
}

}  // namespace

FwqCampaignResult run_fwq_campaign(const noise::AnalyticNoiseProfile& profile,
                                   const FwqCampaignConfig& config) {
  HPCOS_CHECK(config.nodes >= 1 && config.app_cores >= 1);
  HPCOS_CHECK(config.nodes_per_shard >= 1);
  HPCOS_CHECK_MSG(config.work_quantum > SimTime::zero(),
                  "FWQ work quantum must be positive");
  const auto iters_per_core = static_cast<std::uint64_t>(
      config.duration_per_core.ratio(config.work_quantum));
  HPCOS_CHECK_MSG(iters_per_core >= 1,
                  "duration_per_core must cover at least one work_quantum; "
                  "the campaign would be empty and report zero noise");
  const std::uint64_t iters_per_node =
      iters_per_core * static_cast<std::uint64_t>(config.app_cores);

  FwqCampaignResult result;

  const auto num_shards = static_cast<std::size_t>(
      (config.nodes + config.nodes_per_shard - 1) / config.nodes_per_shard);
  // Ledger slots: one per profile source (its profile index, stable whether
  // or not any node activates the source) plus a trailing jitter-floor
  // slot. The ledger names them, so names must be unique.
  std::set<std::string_view> names;
  std::vector<SourceConstants> constants;
  constants.reserve(profile.sources.size());
  for (const noise::NoiseSourceSpec& s : profile.sources) {
    HPCOS_CHECK_MSG(names.insert(s.name).second,
                    "duplicate noise source name in profile");
    constants.emplace_back(s, config);
  }
  const std::size_t attrib_slots = profile.sources.size() + 1;

  // Series resolution: kTimelineBuckets buckets cover the window without
  // coarsening (ceil division — a bucket may overhang the end, but no
  // in-window sample can overflow the ring).
  constexpr auto buckets = static_cast<std::int64_t>(kTimelineBuckets);
  const SimTime timeline_resolution = SimTime::ns(
      (config.duration_per_core.count_ns() + buckets - 1) / buckets);

  std::vector<ShardAccumulator> shards;
  shards.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards.emplace_back(result.cdf,  // copy of the (empty) target layout
                        attrib_slots);
    if (config.timeline) {
      shards.back().enable_timeline(config, timeline_resolution,
                                    attrib_slots);
    }
  }

  const RngStream root(config.seed, 0xF80);
  // Shard boundaries are fixed by nodes_per_shard, never by the host
  // thread count, and each shard accumulates into its own slot — so the
  // shard-ordered merge below is bit-identical whether this call runs
  // top-level or as a nested task group inside another parallel_for
  // (the scheduler executes both without serial fallback).
  static const obs::prof::AllocCounter alloc("fwq.shards");
  alloc.add(num_shards * sizeof(ShardAccumulator));
  // Live progress feed: shards are the campaign's completion units, and
  // the iterations a shard materialized are its event count. Statistics
  // only — the counters never feed back into any result.
  static obs::prof::HostCounter* const units_total =
      obs::prof::host_counter(obs::prof::kLiveUnitsTotal);
  static obs::prof::HostCounter* const units_done =
      obs::prof::host_counter(obs::prof::kLiveUnitsDone);
  static obs::prof::HostCounter* const events =
      obs::prof::host_counter(obs::prof::kLiveEvents);
  units_total->add(num_shards);
  parallel_for(
      num_shards,
      [&](std::size_t shard) {
        PROF_SCOPE("fwq.shard");
        ShardAccumulator& acc = shards[shard];
        const std::int64_t begin =
            static_cast<std::int64_t>(shard) * config.nodes_per_shard;
        const std::int64_t end =
            std::min(begin + config.nodes_per_shard, config.nodes);
        for (std::int64_t n = begin; n < end; ++n) {
          simulate_node(profile, config, iters_per_node, constants, n,
                        root.split(static_cast<std::uint64_t>(n)), acc);
        }
        units_done->add(1);
        events->add(acc.iterations);
      },
      config.threads);

  // Merge in rank (shard) order. The profiler scope covers the whole
  // serial tail (merge, worst-N selection, registry fold): that is the
  // campaign's Amdahl term, worth seeing as one line in the hotspot
  // table.
  PROF_SCOPE("fwq.merge");
  result.per_source.resize(attrib_slots);
  for (std::size_t i = 0; i < profile.sources.size(); ++i) {
    result.per_source[i].source = profile.sources[i].name;
    result.per_source[i].kind = profile.sources[i].kind;
    result.per_source[i].scope = profile.sources[i].scope;
  }
  result.per_source.back().source = "jitter-floor";
  result.per_source.back().kind = noise::SourceKind::kHardware;

  if (config.timeline) {
    result.timeline.enabled = true;
    result.timeline.duration = config.duration_per_core;
    result.timeline.per_source.reserve(attrib_slots);
    result.timeline.sketches.reserve(attrib_slots);
    for (std::size_t i = 0; i < attrib_slots; ++i) {
      result.timeline.per_source.emplace_back(timeline_resolution,
                                              kTimelineBuckets);
      result.timeline.sketches.push_back(duration_us_histogram());
    }
    result.timeline.heatmap = obs::ts::NodeTimeGrid(
        config.nodes, config.duration_per_core, kHeatmapRows, kHeatmapCols);
  }

  SimTime global_min = SimTime::max();
  SimTime global_max = SimTime::zero();
  double overhead_sum_us = 0.0;
  std::vector<double> worst_candidates;
  std::uint64_t topk_pushes = 0;
  std::uint64_t topk_evictions = 0;
  for (const ShardAccumulator& acc : shards) {
    result.cdf.merge(acc.cdf);
    overhead_sum_us += acc.overhead_sum_us;
    global_min = std::min(global_min, acc.min_time);
    global_max = std::max(global_max, acc.max_time);
    result.total_iterations += acc.iterations;
    for (std::size_t i = 0; i < attrib_slots; ++i) {
      result.per_source[i].stolen_us += acc.stolen_us[i];
      result.per_source[i].hit_iterations += acc.hit_iterations[i];
      result.per_source[i].worst_us =
          std::max(result.per_source[i].worst_us, acc.worst_us[i]);
    }
    worst_candidates.insert(worst_candidates.end(), acc.worst.begin(),
                            acc.worst.end());
    topk_pushes += acc.topk_pushes;
    topk_evictions += acc.topk_evictions;
    if (config.timeline) {
      for (std::size_t i = 0; i < attrib_slots; ++i) {
        result.timeline.per_source[i].merge(acc.series[i]);
        result.timeline.sketches[i].merge(acc.sketches[i]);
      }
      result.timeline.heatmap.merge(acc.grid);
    }
  }

  // Worst-100 node selection (what the paper persists to the PFS), from at
  // most num_shards * kWorstNodes candidates, never O(nodes) maxima.
  const std::size_t keep = std::min(kWorstNodes, worst_candidates.size());
  std::partial_sort(
      worst_candidates.begin(),
      worst_candidates.begin() + static_cast<std::ptrdiff_t>(keep),
      worst_candidates.end(), std::greater<double>());
  worst_candidates.resize(keep);
  result.worst_node_max_us = std::move(worst_candidates);

  if (config.registry != nullptr) {
    config.registry->counter("fwq.campaign.nodes")
        ->add(static_cast<std::uint64_t>(config.nodes));
    config.registry->counter("fwq.campaign.iterations")
        ->add(result.total_iterations);
    config.registry->counter("fwq.topk.pushes")->add(topk_pushes);
    config.registry->counter("fwq.topk.evictions")->add(topk_evictions);
  }

  result.stats.t_min = global_min == SimTime::max() ? config.work_quantum
                                                    : global_min;
  result.stats.t_max = global_max;
  result.stats.max_noise_length = result.stats.t_max - result.stats.t_min;
  result.stats.samples = result.total_iterations;
  const double tmin_us = result.stats.t_min.to_us();
  result.stats.noise_rate =
      overhead_sum_us /
      (tmin_us * static_cast<double>(result.total_iterations));
  return result;
}

}  // namespace hpcos::cluster
