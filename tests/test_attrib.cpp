// Attribution engine: span self-time math, folded-stack round trip, the
// campaign attribution ledger (reconciliation + analytic expectations),
// and the BSP straggler / critical-path report.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/bsp.h"
#include "cluster/fwq_campaign.h"
#include "cluster/machine_noise.h"
#include "cluster/osenv.h"
#include "noise/profiles.h"
#include "obs/attrib/critical_path.h"
#include "obs/attrib/ledger.h"
#include "obs/attrib/report.h"
#include "obs/bench_report.h"
#include "sim/folded_stack.h"
#include "sim/span_tree.h"
#include "test_support.h"

namespace hpcos {
namespace {

sim::TraceRecord span_rec(std::int64_t us, std::int64_t dur_us,
                          const std::string& label, std::uint64_t span,
                          std::uint64_t parent, hw::CoreId core = 0,
                          sim::TraceCategory cat = sim::TraceCategory::kUser) {
  return sim::TraceRecord{.time = SimTime::us(us),
                          .core = core,
                          .category = cat,
                          .duration = SimTime::us(dur_us),
                          .label = label,
                          .span = span,
                          .parent = parent};
}

// ------------------------------------------------------ span self time

TEST(SpanSelfTime, NestedTreeSubtractsDirectChildrenOnly) {
  // root(100) -> a(30) -> a1(10), root -> b(20). Self times: root 50
  // (grandchild a1 must not be subtracted twice), a 20, a1 10, b 20.
  const std::vector<sim::TraceRecord> recs = {
      span_rec(0, 100, "root", 1, 0),
      span_rec(0, 30, "a", 2, 1),
      span_rec(5, 10, "a1", 3, 2),
      span_rec(40, 20, "b", 4, 1),
  };
  const sim::SpanForest forest(recs);
  ASSERT_EQ(forest.roots().size(), 1u);
  EXPECT_EQ(forest.self_time(0), SimTime::us(50));
  EXPECT_EQ(forest.self_time(1), SimTime::us(20));
  EXPECT_EQ(forest.self_time(2), SimTime::us(10));
  EXPECT_EQ(forest.self_time(3), SimTime::us(20));
  EXPECT_EQ(forest.total_self_time(), SimTime::us(100));
}

TEST(SpanSelfTime, ZeroLengthChildrenLeaveSelfTimeIntact) {
  const std::vector<sim::TraceRecord> recs = {
      span_rec(0, 40, "root", 1, 0),
      span_rec(10, 0, "marker", 2, 1),
      span_rec(20, 0, "marker", 3, 1),
  };
  const sim::SpanForest forest(recs);
  EXPECT_EQ(forest.self_time(0), SimTime::us(40));
  EXPECT_EQ(forest.total_self_time(), SimTime::us(40));
}

TEST(SpanSelfTime, ChildrenExactlyFillingRootZeroSelfTime) {
  const std::vector<sim::TraceRecord> recs = {
      span_rec(0, 50, "root", 1, 0),
      span_rec(0, 20, "a", 2, 1),
      span_rec(20, 30, "b", 3, 1),
  };
  const sim::SpanForest forest(recs);
  EXPECT_EQ(forest.self_time(0), SimTime::zero());
  // Sum of self times still covers the whole tree once.
  EXPECT_EQ(forest.total_self_time(), SimTime::us(50));
}

TEST(SpanSelfTime, OverfullParentClampsAtZeroNotNegative) {
  // Child longer than parent (recording artifact): self clamps at zero.
  const std::vector<sim::TraceRecord> recs = {
      span_rec(0, 10, "root", 1, 0),
      span_rec(0, 15, "long-child", 2, 1),
  };
  const sim::SpanForest forest(recs);
  EXPECT_EQ(forest.self_time(0), SimTime::zero());
  EXPECT_EQ(forest.self_time(1), SimTime::us(15));
}

TEST(SpanSelfTime, OutOfOrderEmissionAndOrphansStillLink) {
  // Children recorded before their parent, plus an orphan whose parent id
  // was evicted: the orphan is promoted to a root.
  const std::vector<sim::TraceRecord> recs = {
      span_rec(5, 10, "child", 2, 1),
      span_rec(0, 30, "root", 1, 0),
      span_rec(50, 8, "orphan", 7, 99),  // span 99 never recorded
  };
  const sim::SpanForest forest(recs);
  ASSERT_EQ(forest.roots().size(), 2u);
  // Roots are time-ordered: root(at 0) then orphan(at 50).
  EXPECT_EQ(forest.records()[forest.roots()[0]].label, "root");
  EXPECT_EQ(forest.records()[forest.roots()[1]].label, "orphan");
  EXPECT_EQ(forest.self_time(1), SimTime::us(20));  // 30 - 10
  EXPECT_EQ(forest.self_time(2), SimTime::us(8));
}

TEST(SpanSelfTime, RootsByTrackGroupsAndOrdersIterations) {
  std::vector<sim::TraceRecord> recs;
  // Track 3 gets two "it" roots out of time order; track 5 gets one.
  recs.push_back(span_rec(100, 10, "it", 2, 0, 3));
  recs.push_back(span_rec(0, 10, "it", 1, 0, 3));
  recs.push_back(span_rec(50, 10, "it", 4, 0, 5));
  recs.push_back(span_rec(60, 10, "other", 5, 0, 3));
  const sim::SpanForest forest(recs);
  const auto tracks = forest.roots_by_track("it");
  ASSERT_EQ(tracks.size(), 2u);
  ASSERT_EQ(tracks.at(3).size(), 2u);
  EXPECT_EQ(forest.records()[tracks.at(3)[0]].time, SimTime::zero());
  EXPECT_EQ(forest.records()[tracks.at(3)[1]].time, SimTime::us(100));
  ASSERT_EQ(tracks.at(5).size(), 1u);
}

// ------------------------------------------------------- folded stacks

TEST(FoldedStack, RoundTripsThroughValidator) {
  const std::vector<sim::TraceRecord> recs = {
      span_rec(0, 100, "root", 1, 0),
      span_rec(0, 30, "a", 2, 1),
      span_rec(5, 10, "a1", 3, 2),
      span_rec(40, 20, "b", 4, 1),
      // Second tree with the same shape aggregates into the same paths.
      span_rec(200, 100, "root", 5, 0),
      span_rec(200, 30, "a", 6, 5),
  };
  const std::string text = sim::folded_stack(recs);
  EXPECT_EQ(sim::validate_folded_stack(text), "");
  const auto entries = sim::parse_folded_stack(text);
  ASSERT_EQ(entries.size(), 4u);  // root, root;a, root;a;a1, root;b
  // Lexicographically sorted, ns self-time values, aggregated across trees.
  EXPECT_EQ(entries[0].first, "root");
  EXPECT_EQ(entries[0].second, 50'000 + 70'000);
  EXPECT_EQ(entries[1].first, "root;a");
  EXPECT_EQ(entries[1].second, 20'000 + 30'000);
  EXPECT_EQ(entries[2].first, "root;a;a1");
  EXPECT_EQ(entries[2].second, 10'000);
  EXPECT_EQ(entries[3].first, "root;b");
  EXPECT_EQ(entries[3].second, 20'000);
  // Folding the parse result's source again is a fixed point.
  EXPECT_EQ(sim::folded_stack(recs), text);
}

TEST(FoldedStack, OmitsZeroSelfFramesAndSanitizesLabels) {
  const std::vector<sim::TraceRecord> recs = {
      span_rec(0, 50, "root;tricky", 1, 0),  // ';' must not split frames
      span_rec(0, 50, "all", 2, 1),          // fills root: root self == 0
  };
  const std::string text = sim::folded_stack(recs);
  EXPECT_EQ(sim::validate_folded_stack(text), "");
  const auto entries = sim::parse_folded_stack(text);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "root:tricky;all");
  EXPECT_EQ(entries[0].second, 50'000);
}

TEST(FoldedStack, EmptyAndInvalidTexts) {
  EXPECT_EQ(sim::folded_stack(std::vector<sim::TraceRecord>{}), "");
  EXPECT_EQ(sim::validate_folded_stack(""), "");
  EXPECT_NE(sim::validate_folded_stack("onlystack\n"), "");
  EXPECT_NE(sim::validate_folded_stack("a 0\n"), "");
  EXPECT_NE(sim::validate_folded_stack("a 1\na 2\n"), "");   // duplicate
  EXPECT_NE(sim::validate_folded_stack("b 1\na 2\n"), "");   // unsorted
  EXPECT_NE(sim::validate_folded_stack("a;;b 3\n"), "");     // empty frame
}

// ------------------------------------------------- attribution ledger

TEST(AttribLedger, ReconcilesWithCampaignStatsBelow1e9) {
  const auto profile = noise::fugaku_linux_profile();
  cluster::FwqCampaignConfig config;
  config.nodes = 48;
  config.app_cores = 16;
  config.duration_per_core = SimTime::sec(60);
  config.seed = Seed{11};
  const auto result = cluster::run_fwq_campaign(profile, config);
  ASSERT_EQ(result.per_source.size(), profile.sources.size() + 1);
  EXPECT_EQ(result.per_source.back().source, "jitter-floor");

  const auto ledger =
      obs::attrib::build_ledger(result, profile, config);
  EXPECT_GT(ledger.total_stolen_us, 0.0);
  // The acceptance invariant: the per-source sums reproduce the Eq. 2
  // noise-rate total to floating-point reassociation error.
  EXPECT_LT(ledger.reconciliation_error, 1e-9);

  double sum = 0.0;
  for (const auto& row : ledger.rows) sum += row.stolen_us;
  EXPECT_NEAR(sum, ledger.total_stolen_us,
              1e-9 * std::abs(ledger.total_stolen_us));
  // Rows are sorted by descending theft.
  for (std::size_t i = 1; i < ledger.rows.size(); ++i) {
    EXPECT_GE(ledger.rows[i - 1].stolen_us, ledger.rows[i].stolen_us);
  }
}

TEST(AttribLedger, ReconcilesWithAllCoresSources) {
  // Countermeasures off reintroduces kAllCores sources (PMU reads, TLBI),
  // whose every hit lengthens all app_cores iterations; the identity must
  // survive them.
  const auto profile =
      noise::fugaku_linux_profile(noise::Countermeasures{
          .bind_daemons = false, .stop_pmu_reads = false,
          .suppress_global_tlbi = false});
  cluster::FwqCampaignConfig config;
  config.nodes = 24;
  config.app_cores = 12;
  config.duration_per_core = SimTime::sec(30);
  config.seed = Seed{12};
  const auto result = cluster::run_fwq_campaign(profile, config);
  const auto ledger =
      obs::attrib::build_ledger(result, profile, config);
  EXPECT_LT(ledger.reconciliation_error, 1e-9);
}

TEST(AttribLedger, PerSourceTotalsIndependentOfHostThreads) {
  const auto profile = noise::fugaku_linux_profile();
  cluster::FwqCampaignConfig config;
  config.nodes = 40;
  config.app_cores = 8;
  config.duration_per_core = SimTime::sec(30);
  config.nodes_per_shard = 8;
  config.seed = Seed{13};
  config.threads = 1;
  const auto serial = cluster::run_fwq_campaign(profile, config);
  config.threads = 4;
  const auto parallel = cluster::run_fwq_campaign(profile, config);
  ASSERT_EQ(serial.per_source.size(), parallel.per_source.size());
  for (std::size_t i = 0; i < serial.per_source.size(); ++i) {
    EXPECT_EQ(serial.per_source[i].source, parallel.per_source[i].source);
    EXPECT_EQ(serial.per_source[i].stolen_us,
              parallel.per_source[i].stolen_us);  // byte-identical
    EXPECT_EQ(serial.per_source[i].hit_iterations,
              parallel.per_source[i].hit_iterations);
    EXPECT_EQ(serial.per_source[i].worst_us, parallel.per_source[i].worst_us);
  }
}

TEST(AttribLedger, MeasurementTracksAnalyticExpectation) {
  // One ungated metronome source with constant duration: measured theft
  // must sit within Poisson counting noise of the analytic expectation.
  noise::AnalyticNoiseProfile profile;
  profile.name = "synthetic-metronome";
  profile.sources.push_back(noise::NoiseSourceSpec{
      .name = "metronome",
      .kind = noise::SourceKind::kDaemon,
      .scope = noise::SourceScope::kPerNodeRandomCore,
      .mean_interval = SimTime::from_ms(10),
      .duration = {.median = SimTime::from_us(50)}});
  cluster::FwqCampaignConfig config;
  config.nodes = 16;
  config.app_cores = 4;
  config.duration_per_core = SimTime::sec(60);
  config.seed = Seed{14};
  const auto result = cluster::run_fwq_campaign(profile, config);
  const auto ledger =
      obs::attrib::build_ledger(result, profile, config);
  const auto& row = ledger.rows.front();
  EXPECT_EQ(row.source, "metronome");
  // E[stolen] = 16 nodes * (60 s / 10 ms) * 50 us = 4.8e6 us; ~96k hits
  // so counting noise is well under 5%.
  EXPECT_NEAR(row.expected_us, 4.8e6, 1.0);
  EXPECT_LT(std::abs(row.divergence), 0.05);
  EXPECT_FALSE(row.flagged);
}

// ------------------------------------------- straggler / critical path

class NoisyStep final : public cluster::Workload {
 public:
  std::string name() const override { return "noisy-step"; }
  int iterations() const override { return 8; }
  cluster::RankWork rank_work(int, const cluster::JobConfig&,
                              const cluster::OsEnvironment&) const override {
    cluster::RankWork w;
    w.compute = SimTime::from_ms(5);
    w.allreduces = 1;
    w.allreduce_bytes = 1024;
    w.barriers = 1;
    return w;
  }
  cluster::InitWork init_work(const cluster::JobConfig&,
                              const cluster::OsEnvironment&) const override {
    cluster::InitWork init;
    init.serial_setup = SimTime::from_ms(1);
    return init;
  }
};

cluster::OsEnvironment single_loud_source_env(const std::string& source) {
  auto env = cluster::make_fugaku_linux_env();
  noise::AnalyticNoiseProfile profile;
  profile.name = "single-loud-source";
  profile.sources.push_back(noise::NoiseSourceSpec{
      .name = source,
      .kind = noise::SourceKind::kDaemon,
      .scope = noise::SourceScope::kPerNodeRandomCore,
      .mean_interval = SimTime::from_ms(5),
      .duration = {.median = SimTime::from_us(300)}});
  env.profile = profile;
  return env;
}

TEST(StragglerReport, NamesInjectedDominantSource) {
  // Single loud source: every iteration's noise wait must be tagged with
  // it, and the report's overall dominant source must name it.
  const auto env = single_loud_source_env("loud-daemon");
  const cluster::JobConfig job{.nodes = 64, .ranks_per_node = 4,
                               .threads_per_rank = 12};
  NoisyStep w;
  sim::TraceBuffer buf(1 << 14);
  for (int track = 0; track < 3; ++track) {
    cluster::BspEngine engine(env, job,
                              Seed{20 + static_cast<std::uint64_t>(track)});
    engine.set_trace(&buf, static_cast<hw::CoreId>(track));
    engine.run(w);
  }
  const auto report =
      obs::attrib::build_straggler_report(buf.snapshot());
  EXPECT_EQ(report.tracks, 3u);
  EXPECT_EQ(report.iterations.size(), 8u);
  EXPECT_EQ(report.dominant_source, "loud-daemon");
  for (const auto& it : report.iterations) {
    EXPECT_GT(it.duration_us, 0.0);
    EXPECT_GE(it.duration_us, it.min_us);
    if (it.noise_wait_us > 0.0) {
      EXPECT_EQ(it.dominant_source, "loud-daemon");
      EXPECT_EQ(it.dominant_category, sim::TraceCategory::kDaemon);
      EXPECT_GT(it.dominant_us, 0.0);
      EXPECT_LE(it.dominant_us, it.noise_wait_us + 1e-9);
    }
    // The compute window is recorded for the overlay.
    EXPECT_GT(it.compute_end, it.compute_begin);
  }
  ASSERT_EQ(report.by_source.size(), 1u);
  EXPECT_EQ(report.by_source[0].source, "loud-daemon");
  EXPECT_GT(report.by_source[0].iterations, 0u);
}

TEST(StragglerReport, AnchorShiftsPhaseSpansOntoWallClock) {
  const auto env = single_loud_source_env("loud-daemon");
  const cluster::JobConfig job{.nodes = 16, .ranks_per_node = 4,
                               .threads_per_rank = 12};
  NoisyStep w;
  sim::TraceBuffer zero_buf(1 << 12);
  sim::TraceBuffer anchored_buf(1 << 12);
  const SimTime anchor = SimTime::from_ms(123);
  cluster::BspEngine a(env, job, Seed{33});
  a.set_trace(&zero_buf, 0);
  const auto ra = a.run(w);
  cluster::BspEngine b(env, job, Seed{33});
  b.set_trace(&anchored_buf, 0, anchor);
  const auto rb = b.run(w);
  EXPECT_EQ(ra.total, rb.total);  // anchoring is presentation-only
  const auto za = zero_buf.snapshot();
  const auto zb = anchored_buf.snapshot();
  ASSERT_EQ(za.size(), zb.size());
  for (std::size_t i = 0; i < za.size(); ++i) {
    EXPECT_EQ(za[i].time + anchor, zb[i].time) << za[i].label;
    EXPECT_EQ(za[i].duration, zb[i].duration);
    EXPECT_EQ(za[i].label, zb[i].label);
  }
}

TEST(StragglerReport, OverlayFindsNodeEventsInComputeWindow) {
  // Hand-built two-track trace: track 0 is the straggler with a compute
  // window of [0, 60) us; node events inside the window must be overlaid
  // longest first, events outside must not.
  sim::TraceBuffer buf(32);
  const auto it0 = buf.new_span();
  buf.record(span_rec(0, 100, "bsp:iteration", it0, 0, 0,
                      sim::TraceCategory::kCollective));
  buf.record(span_rec(0, 60, "bsp:compute", buf.new_span(), it0, 0));
  const auto wait = buf.new_span();
  buf.record(span_rec(60, 40, "bsp:noise-wait", wait, it0, 0,
                      sim::TraceCategory::kScheduler));
  buf.record(span_rec(60, 35, "noise:loud-daemon", buf.new_span(), wait, 0,
                      sim::TraceCategory::kDaemon));
  const auto it1 = buf.new_span();
  buf.record(span_rec(0, 80, "bsp:iteration", it1, 0, 1,
                      sim::TraceCategory::kCollective));

  auto report = obs::attrib::build_straggler_report(buf.snapshot());
  ASSERT_EQ(report.iterations.size(), 1u);
  EXPECT_EQ(report.iterations[0].track, 0);
  EXPECT_DOUBLE_EQ(report.iterations[0].excess_us, 20.0);
  EXPECT_EQ(report.iterations[0].dominant_source, "loud-daemon");

  std::vector<sim::TraceRecord> node_records;
  node_records.push_back(
      sim::TraceRecord{.time = SimTime::us(10), .core = 7,
                       .category = sim::TraceCategory::kKworker,
                       .duration = SimTime::us(5),
                       .label = "kworker/u:3"});
  node_records.push_back(  // zero-duration marker inside the window
      sim::TraceRecord{.time = SimTime::us(30), .core = 7,
                       .category = sim::TraceCategory::kTimerTick,
                       .label = "tick"});
  node_records.push_back(  // outside the compute window
      sim::TraceRecord{.time = SimTime::us(200), .core = 7,
                       .category = sim::TraceCategory::kDaemon,
                       .duration = SimTime::us(50),
                       .label = "late-daemon"});
  node_records.push_back(  // straddles the window end: intersects
      sim::TraceRecord{.time = SimTime::us(55), .core = 7,
                       .category = sim::TraceCategory::kBlkMq,
                       .duration = SimTime::us(20),
                       .label = "blk-mq"});
  obs::attrib::overlay_noise_events(report, node_records);
  const auto& overlay = report.iterations[0].overlay;
  ASSERT_EQ(overlay.size(), 3u);
  EXPECT_EQ(overlay[0].label, "blk-mq");  // longest first
  EXPECT_EQ(overlay[1].label, "kworker/u:3");
  EXPECT_EQ(overlay[2].label, "tick");

  obs::attrib::overlay_noise_events(report, node_records, /*max_events=*/1);
  ASSERT_EQ(report.iterations[0].overlay.size(), 1u);
  EXPECT_EQ(report.iterations[0].overlay[0].label, "blk-mq");
}

TEST(StragglerReport, CoreAwareOverlayStopsCrossRankMisattribution) {
  // Two rank tracks sharing one node: track 0 owns cores {0..3}, track 1
  // owns cores {4..7}. Track 0 is the straggler; a per-core event on one
  // of track 1's cores falls inside track 0's compute window, so the
  // time-only match misattributes it to track 0. The core-aware match
  // must keep it out while still overlaying track 0's own cores and
  // machine-wide (kInvalidCore) events.
  sim::TraceBuffer buf(16);
  const auto it0 = buf.new_span();
  buf.record(span_rec(0, 100, "bsp:iteration", it0, 0, 0,
                      sim::TraceCategory::kCollective));
  buf.record(span_rec(0, 60, "bsp:compute", buf.new_span(), it0, 0));
  const auto it1 = buf.new_span();
  buf.record(span_rec(0, 80, "bsp:iteration", it1, 0, 1,
                      sim::TraceCategory::kCollective));
  buf.record(span_rec(0, 50, "bsp:compute", buf.new_span(), it1, 1));
  auto report = obs::attrib::build_straggler_report(buf.snapshot());
  ASSERT_EQ(report.iterations.size(), 1u);
  ASSERT_EQ(report.iterations[0].track, 0);

  std::vector<sim::TraceRecord> node_records;
  node_records.push_back(  // on track 1's core, inside both windows
      sim::TraceRecord{.time = SimTime::us(10), .core = 5,
                       .category = sim::TraceCategory::kDaemon,
                       .duration = SimTime::us(30),
                       .label = "other-ranks-daemon"});
  node_records.push_back(  // on track 0's own core
      sim::TraceRecord{.time = SimTime::us(20), .core = 2,
                       .category = sim::TraceCategory::kKworker,
                       .duration = SimTime::us(8),
                       .label = "own-kworker"});
  node_records.push_back(  // machine-wide event: hits every rank
      sim::TraceRecord{.time = SimTime::us(30), .core = hw::kInvalidCore,
                       .category = sim::TraceCategory::kTlbShootdown,
                       .duration = SimTime::us(5),
                       .label = "tlbi-broadcast"});

  // Time-only matching attributes all three to the straggler.
  obs::attrib::overlay_noise_events(report, node_records);
  ASSERT_EQ(report.iterations[0].overlay.size(), 3u);
  EXPECT_EQ(report.iterations[0].overlay[0].label, "other-ranks-daemon");

  // Core-aware matching drops the other rank's per-core event.
  obs::attrib::TrackCoreMap track_cores;
  hw::CpuSet cores0(8);
  hw::CpuSet cores1(8);
  for (hw::CoreId c = 0; c < 4; ++c) cores0.set(c);
  for (hw::CoreId c = 4; c < 8; ++c) cores1.set(c);
  track_cores.emplace(0, cores0);
  track_cores.emplace(1, cores1);
  obs::attrib::overlay_noise_events(report, node_records, /*max_events=*/8,
                                    &track_cores);
  ASSERT_EQ(report.iterations[0].overlay.size(), 2u);
  EXPECT_EQ(report.iterations[0].overlay[0].label, "own-kworker");
  EXPECT_EQ(report.iterations[0].overlay[1].label, "tlbi-broadcast");

  // A track without a map entry keeps the time-only match.
  obs::attrib::TrackCoreMap only_other;
  only_other.emplace(1, cores1);
  obs::attrib::overlay_noise_events(report, node_records, /*max_events=*/8,
                                    &only_other);
  EXPECT_EQ(report.iterations[0].overlay.size(), 3u);
}

TEST(AttributedSampler, MatchesPlainSamplerDrawForDraw) {
  const auto profile = noise::fugaku_linux_profile(
      noise::Countermeasures{.bind_daemons = false});
  RngStream rng_a(Seed{77}, 1);
  RngStream rng_b(Seed{77}, 1);
  cluster::MachineNoiseSampler plain(profile, 64, 48, rng_a);
  cluster::MachineNoiseSampler attributed(profile, 64, 48, rng_b);
  for (int i = 0; i < 200; ++i) {
    const SimTime window = SimTime::from_ms(2 + i % 7);
    const SimTime d = plain.sample_global_delay(window);
    const auto s = attributed.sample_global_delay_attributed(window);
    ASSERT_EQ(d, s.delay) << "draw " << i;
    EXPECT_LE(s.worst_event, s.delay);
    if (s.delay > SimTime::zero()) {
      EXPECT_FALSE(s.source.empty());
    } else {
      EXPECT_TRUE(s.source.empty());
    }
  }
}

TEST(AttribReport, MetricsValidateAsBenchReport) {
  const auto profile = noise::fugaku_linux_profile();
  cluster::FwqCampaignConfig config;
  config.nodes = 8;
  config.app_cores = 4;
  config.duration_per_core = SimTime::sec(10);
  config.seed = Seed{15};
  const auto result = cluster::run_fwq_campaign(profile, config);
  const auto ledger =
      obs::attrib::build_ledger(result, profile, config);

  const auto env = single_loud_source_env("loud-daemon");
  NoisyStep w;
  sim::TraceBuffer buf(1 << 12);
  cluster::BspEngine engine(env,
                            cluster::JobConfig{.nodes = 16,
                                               .ranks_per_node = 4,
                                               .threads_per_rank = 12},
                            Seed{16});
  engine.set_trace(&buf, 0);
  engine.run(w);
  const auto straggler =
      obs::attrib::build_straggler_report(buf.snapshot());

  obs::BenchReport report("attrib_unit", true, 15);
  obs::attrib::add_ledger_metrics(report, ledger);
  obs::attrib::add_straggler_metrics(report, straggler);
  EXPECT_GT(report.metric_count(), 6u);
  EXPECT_EQ(obs::validate_bench_report(report.to_json()), "");
}

}  // namespace
}  // namespace hpcos
