// Determinism property tests for the host-parallel cluster paths.
//
// DESIGN §6 promises that results are independent of host thread
// scheduling: per-entity counter-based RNG streams plus index-addressed
// result slots merged in rank order. These tests pin that down: the
// campaign engine and the BSP relative-performance driver must produce
// byte-identical results for threads ∈ {1, 4, default_parallelism()} and
// across repeated runs at the same seed.
//
// This file is also compiled into the hpcos_parallel_tests executable
// (ctest label "parallel"), which the ThreadSanitizer job runs:
//   cmake -B build-tsan -DHPCOS_SANITIZE=thread && ctest -L parallel
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "cluster/bsp.h"
#include "cluster/config_json.h"
#include "cluster/fwq_campaign.h"
#include "cluster/osenv.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "noise/profiles.h"
#include "obs/bench_report.h"
#include "obs/live/span_sampler.h"
#include "obs/prof/prof.h"
#include "obs/prof_report.h"
#include "obs/runlog.h"
#include "sim/trace.h"
#include "test_support.h"

namespace hpcos::cluster {
namespace {

using namespace hpcos::literals;

// Bitwise LogHistogram identity: every bin count and the observed range.
void expect_same_histogram(const LogHistogram& a, const LogHistogram& b,
                           const std::string& what) {
  ASSERT_EQ(a.num_bins(), b.num_bins()) << what;
  ASSERT_EQ(a.total_count(), b.total_count()) << what;
  // EXPECT_EQ on doubles on purpose: bitwise identity.
  EXPECT_EQ(a.observed_min(), b.observed_min()) << what;
  EXPECT_EQ(a.observed_max(), b.observed_max()) << what;
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    ASSERT_EQ(a.bin_count(i), b.bin_count(i)) << what << " bin " << i;
  }
}

void expect_identical(const FwqCampaignResult& a, const FwqCampaignResult& b) {
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.stats.t_min, b.stats.t_min);
  EXPECT_EQ(a.stats.t_max, b.stats.t_max);
  EXPECT_EQ(a.stats.max_noise_length, b.stats.max_noise_length);
  EXPECT_EQ(a.stats.samples, b.stats.samples);
  // Bitwise double comparison on purpose: the merge order is fixed by
  // shard boundaries, not by the host thread count.
  EXPECT_DOUBLE_EQ(a.stats.noise_rate, b.stats.noise_rate);
  ASSERT_EQ(a.worst_node_max_us.size(), b.worst_node_max_us.size());
  EXPECT_EQ(a.worst_node_max_us, b.worst_node_max_us);
  expect_same_histogram(a.cdf, b.cdf, "cdf");
}

FwqCampaignConfig campaign_config(std::size_t threads) {
  FwqCampaignConfig cfg;
  cfg.nodes = 300;  // not a multiple of nodes_per_shard: ragged last shard
  cfg.app_cores = 16;
  cfg.duration_per_core = 120_s;
  cfg.threads = threads;
  cfg.seed = Seed{0xDE7E};
  return cfg;
}

TEST(ParallelDeterminism, FwqCampaignIdenticalAcrossThreadCounts) {
  // The OFP Linux profile exercises every source scope, gated straggler
  // sources, and the jitter floor.
  const auto profile = noise::ofp_linux_profile();
  const auto serial = run_fwq_campaign(profile, campaign_config(1));
  const auto four = run_fwq_campaign(profile, campaign_config(4));
  const auto dflt =
      run_fwq_campaign(profile, campaign_config(default_parallelism()));
  expect_identical(serial, four);
  expect_identical(serial, dflt);
}

TEST(ParallelDeterminism, FwqCampaignIdenticalAcrossRuns) {
  const auto profile = noise::fugaku_linux_profile();
  const auto a = run_fwq_campaign(profile, campaign_config(4));
  const auto b = run_fwq_campaign(profile, campaign_config(4));
  expect_identical(a, b);
}

TEST(ParallelDeterminism, RunLedgerDeterministicLineIdenticalAcrossThreads) {
  // The run ledger's determinism contract (obs/runlog): everything outside
  // the "host" member is bit-identical across host thread counts. Build a
  // full record — config hash, metric snapshot, deterministic line — from
  // the same campaign run at 1/2/8 threads with deliberately different
  // host-side inputs (timestamp, host.* metrics) and require byte
  // equality of the deterministic half.
  const auto profile = noise::ofp_linux_profile();
  auto record_at = [&](std::size_t threads, double fake_wall_s,
                       const std::string& timestamp) {
    auto cfg = campaign_config(threads);
    const auto result = run_fwq_campaign(profile, cfg);
    obs::BenchReport report("fwq_determinism", /*quick=*/true,
                            cfg.seed.value);
    report.add_metric("fwq.noise_rate", "ratio", result.stats.noise_rate);
    report.add_metric("fwq.t_max_ms", "ms", result.stats.t_max.to_ms());
    report.add_metric("fwq.p99_us", "us", result.cdf.quantile(0.99));
    report.add_metric("host.wall_s", "s", fake_wall_s);  // host-dependent
    report.set_config(to_config_json(cfg));
    return obs::make_run_record(report, report.config(), timestamp);
  };
  const JsonValue serial = record_at(1, 0.5, "2026-08-08T00:00:00Z");
  const JsonValue two = record_at(2, 1.5, "2026-08-08T01:00:00Z");
  const JsonValue eight = record_at(8, 2.5, "2026-08-08T02:00:00Z");

  // config_hash: `threads` is a host-execution knob and never reaches it.
  EXPECT_EQ(serial.at("config_hash").as_string(),
            two.at("config_hash").as_string());
  EXPECT_EQ(serial.at("config_hash").as_string(),
            eight.at("config_hash").as_string());
  // Deterministic line: byte-identical despite different host sections.
  const std::string line = obs::deterministic_line(serial);
  EXPECT_EQ(line, obs::deterministic_line(two));
  EXPECT_EQ(line, obs::deterministic_line(eight));
  EXPECT_EQ(obs::deterministic_digest_hex(serial),
            obs::deterministic_digest_hex(eight));
  // The full lines DO differ (host sections disagree) — the split is
  // doing real work.
  EXPECT_NE(obs::run_record_line(serial), obs::run_record_line(eight));
}

TEST(ParallelDeterminism, TimelineIdenticalAcrossThreadCounts) {
  // The streaming timeline (per-source series, overhead histograms, node x
  // time heatmap) accumulates shard-locally and merges in shard order:
  // every bucket, histogram bin, and heatmap cell must be bit-identical
  // for threads in {1, 2, 8}.
  const auto profile = noise::fugaku_linux_profile();
  auto with_timeline = [](std::size_t threads) {
    auto cfg = campaign_config(threads);
    cfg.timeline = true;
    return cfg;
  };
  const auto serial = run_fwq_campaign(profile, with_timeline(1));
  const auto two = run_fwq_campaign(profile, with_timeline(2));
  const auto eight = run_fwq_campaign(profile, with_timeline(8));
  expect_identical(serial, two);
  expect_identical(serial, eight);

  auto expect_timeline_identical = [](const FwqCampaignResult& a,
                                      const FwqCampaignResult& b) {
    ASSERT_TRUE(a.timeline.enabled);
    ASSERT_TRUE(b.timeline.enabled);
    ASSERT_EQ(a.timeline.per_source.size(), b.timeline.per_source.size());
    for (std::size_t i = 0; i < a.timeline.per_source.size(); ++i) {
      const auto& sa = a.timeline.per_source[i];
      const auto& sb = b.timeline.per_source[i];
      ASSERT_EQ(sa.resolution(), sb.resolution()) << "slot " << i;
      ASSERT_EQ(sa.bucket_count(), sb.bucket_count()) << "slot " << i;
      for (std::size_t j = 0; j < sa.bucket_count(); ++j) {
        // EXPECT_EQ on doubles on purpose: bitwise identity.
        ASSERT_EQ(sa.bucket(j).count, sb.bucket(j).count) << i << "/" << j;
        ASSERT_EQ(sa.bucket(j).sum, sb.bucket(j).sum) << i << "/" << j;
        ASSERT_EQ(sa.bucket(j).min, sb.bucket(j).min) << i << "/" << j;
        ASSERT_EQ(sa.bucket(j).max, sb.bucket(j).max) << i << "/" << j;
      }
      expect_same_histogram(a.timeline.sketches[i], b.timeline.sketches[i],
                            "slot " + std::to_string(i));
    }
    const auto& ga = a.timeline.heatmap;
    const auto& gb = b.timeline.heatmap;
    ASSERT_EQ(ga.rows(), gb.rows());
    ASSERT_EQ(ga.cols(), gb.cols());
    for (std::size_t r = 0; r < ga.rows(); ++r) {
      for (std::size_t c = 0; c < ga.cols(); ++c) {
        ASSERT_EQ(ga.cell(r, c), gb.cell(r, c)) << r << "/" << c;
      }
    }
  };
  expect_timeline_identical(serial, two);
  expect_timeline_identical(serial, eight);
}

TEST(ParallelDeterminism, RelativePerformanceIdenticalAcrossThreadCounts) {
  class TinyWorkload final : public Workload {
   public:
    std::string name() const override { return "tiny"; }
    int iterations() const override { return 6; }
    RankWork rank_work(int, const JobConfig&,
                       const OsEnvironment&) const override {
      RankWork w;
      w.compute = SimTime::ms(5);
      w.allreduces = 1;
      w.allreduce_bytes = 4096;
      return w;
    }
  };
  const auto lin = make_ofp_linux_env();
  const auto mck = make_ofp_mckernel_env();
  const JobConfig job{.nodes = 128, .ranks_per_node = 16,
                      .threads_per_rank = 16};
  TinyWorkload w;
  const auto serial =
      relative_performance(w, lin, mck, job, /*trials=*/8, Seed{31}, 1);
  const auto four =
      relative_performance(w, lin, mck, job, /*trials=*/8, Seed{31}, 4);
  const auto dflt = relative_performance(w, lin, mck, job, /*trials=*/8,
                                         Seed{31}, default_parallelism());
  EXPECT_DOUBLE_EQ(serial.mean_ratio, four.mean_ratio);
  EXPECT_DOUBLE_EQ(serial.stddev_ratio, four.stddev_ratio);
  EXPECT_DOUBLE_EQ(serial.mean_ratio, dflt.mean_ratio);
  EXPECT_DOUBLE_EQ(serial.stddev_ratio, dflt.stddev_ratio);
}

TEST(ParallelDeterminism, NestedCampaignMergesIdenticalAcrossThreadCounts) {
  // A campaign whose per-shard fn itself calls parallel_for (the shape
  // run_plan + relative_performance execute as nested task groups):
  // inner results land in index-addressed slots, shard
  // accumulators fold them in item order, and shards merge in shard
  // order — so the merged LogHistogram must be bit-identical across host
  // thread counts.
  auto run = [](std::size_t threads) {
    const std::size_t shards = 7;
    const std::size_t per_shard = 141;  // not a chunk multiple: ragged
    std::vector<LogHistogram> accs(shards, LogHistogram(1000.0, 1e6, 1024));
    parallel_for(
        shards,
        [&](std::size_t sh) {
          std::vector<double> vals(per_shard);
          parallel_for(
              per_shard,
              [&](std::size_t i) {
                RngStream rng(Seed{0xABCD}, sh * 1000 + i);
                vals[i] = rng.lognormal(8.0, 1.3);
              },
              threads);
          for (double v : vals) accs[sh].add(v);
        },
        threads);
    LogHistogram merged(1000.0, 1e6, 1024);
    for (const auto& acc : accs) merged.merge(acc);
    return merged;
  };
  const LogHistogram serial = run(1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    expect_same_histogram(run(threads), serial,
                          "threads " + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, NestedRelativePerformanceIdenticalAcrossThreads) {
  // run_plan's composition: an outer parallel_for over figure points
  // whose fn calls relative_performance, whose trials loop is itself a
  // parallel_for. Previously the inner loop fell back to serial inside a
  // worker; now both levels run on the scheduler, and every row must
  // stay bit-identical for any (outer, inner) host thread combination.
  class TinyWorkload final : public Workload {
   public:
    std::string name() const override { return "tiny-nested"; }
    int iterations() const override { return 4; }
    RankWork rank_work(int, const JobConfig&,
                       const OsEnvironment&) const override {
      RankWork w;
      w.compute = SimTime::ms(5);
      w.allreduces = 1;
      w.allreduce_bytes = 4096;
      return w;
    }
  };
  const auto lin = make_ofp_linux_env();
  const auto mck = make_ofp_mckernel_env();
  auto run = [&](std::size_t outer_threads, std::size_t inner_threads) {
    std::vector<RelativeResult> rows(4);
    TinyWorkload w;
    parallel_for(
        rows.size(),
        [&](std::size_t p) {
          const JobConfig job{.nodes = 32 << p, .ranks_per_node = 16,
                              .threads_per_rank = 16};
          rows[p] = relative_performance(w, lin, mck, job, /*trials=*/5,
                                         Seed{0xF1E + p}, inner_threads);
        },
        outer_threads);
    return rows;
  };
  const auto serial = run(1, 1);
  const std::vector<std::pair<std::size_t, std::size_t>> combos{
      {2, 2}, {8, 2}, {2, 8}};
  for (const auto& [outer, inner] : combos) {
    const auto par = run(outer, inner);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      EXPECT_DOUBLE_EQ(par[p].mean_ratio, serial[p].mean_ratio)
          << outer << "x" << inner << " row " << p;
      EXPECT_DOUBLE_EQ(par[p].stddev_ratio, serial[p].stddev_ratio)
          << outer << "x" << inner << " row " << p;
    }
  }
}

TEST(ParallelDeterminism, ProfilerCountsIdenticalUnderNestedParallelFor) {
  // The profiler's per-thread ring buffers written from inside a nested
  // parallel_for — concurrent single-writer appends plus the release/
  // acquire size handshake collect() reads. This is the surface the
  // ThreadSanitizer job must watch (ctest -L parallel under
  // -DHPCOS_SANITIZE=thread), and the count half of the determinism
  // contract: merged scope counts are bit-identical for any host thread
  // count; times are host-dependent and not compared.
  auto run = [](std::size_t threads) {
    obs::prof::reset();
    obs::prof::set_enabled(true);
    parallel_for(
        12,
        [&](std::size_t) {
          PROF_SCOPE("det.outer");
          parallel_for(
              8,
              [&](std::size_t j) {
                PROF_SCOPE("det.inner");
                volatile double sink = 0.0;
                for (std::size_t k = 0; k < 50 + j; ++k) sink += double(k);
              },
              threads);
        },
        threads);
    obs::prof::set_enabled(false);
    std::map<std::string, std::uint64_t> counts;
    for (const auto& s : obs::prof::collect().scopes) {
      counts[s.name] = s.count;
    }
    return counts;
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.at("det.outer"), 12u);
  ASSERT_EQ(serial.at("det.inner"), 96u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
  obs::prof::reset();
}

TEST(ParallelDeterminism, HistogramShardMergeEqualsSinglePass) {
  // Shard-and-merge (what the campaign does per node shard) must be
  // indistinguishable from one serial pass.
  RngStream rng(Seed{77}, 0);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.lognormal(8.0, 1.5));
  }
  // The shards are constructed and filled concurrently, before any other
  // histogram of their layout exists, so the layout's shared bin table is
  // looked up (and built once) from several threads at once.
  const std::size_t shard_size = 311;  // ragged shards on purpose
  const std::size_t num_shards =
      (values.size() + shard_size - 1) / shard_size;
  std::vector<std::optional<LogHistogram>> shards(num_shards);
  parallel_for(
      num_shards,
      [&](std::size_t s) {
        LogHistogram& shard = shards[s].emplace(1000.0, 1e6, 2048);
        const std::size_t end =
            std::min((s + 1) * shard_size, values.size());
        for (std::size_t i = s * shard_size; i < end; ++i) {
          shard.add(values[i]);
        }
      },
      4);
  LogHistogram merged(1000.0, 1e6, 2048);
  for (const auto& shard : shards) merged.merge(*shard);

  LogHistogram whole(1000.0, 1e6, 2048);
  for (double v : values) whole.add(v);

  EXPECT_EQ(merged.total_count(), whole.total_count());
  EXPECT_DOUBLE_EQ(merged.observed_min(), whole.observed_min());
  EXPECT_DOUBLE_EQ(merged.observed_max(), whole.observed_max());
  for (std::size_t i = 0; i < whole.num_bins(); ++i) {
    ASSERT_EQ(merged.bin_count(i), whole.bin_count(i)) << "bin " << i;
  }
}

// Synthetic per-node span trees (4 records each: root, two children, one
// grandchild) for the sampled-tracer determinism witness below.
std::vector<sim::TraceRecord> sampler_trace(std::uint64_t node,
                                            std::size_t trees) {
  std::vector<sim::TraceRecord> records;
  std::uint64_t next_span = 1;
  for (std::size_t i = 0; i < trees; ++i) {
    const std::uint64_t root = next_span++;
    const std::uint64_t child_a = next_span++;
    const std::uint64_t child_b = next_span++;
    const std::uint64_t leaf = next_span++;
    const auto t0 =
        SimTime::us(static_cast<std::int64_t>(500 * i + 13 * node));
    const std::int64_t dur =
        static_cast<std::int64_t>(30 + (i * 11 + node * 5) % 90);
    records.push_back({t0, hw::CoreId{0}, sim::TraceCategory::kSyscallOffload,
                       SimTime::us(dur), "offload.write", root, 0});
    records.push_back({t0 + SimTime::us(1), hw::CoreId{0},
                       sim::TraceCategory::kSyscallOffload,
                       SimTime::us(dur / 3), "ikc.request", child_a, root});
    records.push_back({t0 + SimTime::us(2), hw::CoreId{1},
                       sim::TraceCategory::kSyscall, SimTime::us(dur / 6),
                       "proxy.exec", leaf, child_a});
    records.push_back({t0 + SimTime::us(4), hw::CoreId{0},
                       sim::TraceCategory::kSyscallOffload,
                       SimTime::us(dur / 3), "ikc.reply", child_b, root});
  }
  return records;
}

TEST(ParallelDeterminism, SampledSpanTraceIdenticalAcrossThreadCounts) {
  // The sampler's contract (obs/live/span_sampler.h): sample_node is a
  // pure function of (config, node, records), so the per-node samples —
  // kept span sequence, counts, and every per-label histogram — must be
  // bit-identical no matter how many host threads ran the sampling.
  namespace live = obs::live;
  constexpr std::size_t kNodes = 48;
  live::SpanSamplerConfig cfg;
  cfg.seed = 0xBEEF;
  cfg.rate = 0.5;
  cfg.max_roots_per_node = 12;

  const auto sample_all = [&](std::size_t threads) {
    std::vector<live::NodeSample> slots(kNodes);
    parallel_for(
        kNodes,
        [&](std::size_t node) {
          slots[node] = live::sample_node(
              cfg, node, sampler_trace(node, 40 + node % 7));
        },
        threads);
    return slots;
  };

  const std::vector<live::NodeSample> serial = sample_all(1);
  const std::vector<live::NodeSample> two = sample_all(2);
  const std::vector<live::NodeSample> eight = sample_all(8);

  const auto expect_identical = [&](const live::NodeSample& a,
                                    const live::NodeSample& b,
                                    const std::string& what) {
    EXPECT_EQ(a.roots_seen, b.roots_seen) << what;
    EXPECT_EQ(a.roots_kept, b.roots_kept) << what;
    EXPECT_EQ(a.records_kept, b.records_kept) << what;
    ASSERT_EQ(a.records.size(), b.records.size()) << what;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      ASSERT_EQ(a.records[i].span, b.records[i].span) << what << " " << i;
      ASSERT_EQ(a.records[i].time, b.records[i].time) << what << " " << i;
      ASSERT_EQ(a.records[i].label, b.records[i].label) << what << " " << i;
    }
    ASSERT_EQ(a.sketches.size(), b.sketches.size()) << what;
    for (const auto& [label, sketch] : a.sketches) {
      const auto it = b.sketches.find(label);
      ASSERT_NE(it, b.sketches.end()) << what << " " << label;
      expect_same_histogram(sketch, it->second, what + " " + label);
    }
  };
  std::uint64_t roots_seen = 0;
  std::uint64_t roots_kept = 0;
  for (std::size_t node = 0; node < kNodes; ++node) {
    const std::string what = "node " + std::to_string(node);
    expect_identical(serial[node], two[node], what);
    expect_identical(serial[node], eight[node], what);
    // The histogram side covers every root the node saw.
    EXPECT_EQ(serial[node].sketches.at("offload.write").total_count(),
              serial[node].roots_seen)
        << what;
    roots_seen += serial[node].roots_seen;
    roots_kept += serial[node].roots_kept;
  }
  // Sanity on the fixture itself: sampling actually thinned something.
  EXPECT_GT(roots_seen, roots_kept);
}

}  // namespace
}  // namespace hpcos::cluster
