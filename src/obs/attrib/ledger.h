// Per-source noise attribution ledger (§4.2 / Table 2 workflow).
//
// The paper attributes measured FWQ noise back to individual kernel
// actors (ftrace: fib manager, kworkers, blk-mq, TCS PMU reads) and
// checks each against its expected magnitude before and after a
// countermeasure. This module is that bookkeeping for the machine-scale
// campaign:
//
//  * campaign ledger — the per-source overhead sums the machine-scale FWQ
//    campaign accumulates (cluster::SourceAttribution), reconciled against
//    (a) the campaign's own Eq. 2 noise rate (the totals must agree to
//    float reassociation error — an internal consistency invariant) and
//    (b) the analytic expectation of each source's theft from its spec
//    (arrival rate x mean duration x cores per hit), flagging sources
//    whose measured share diverges from expectation (a gated population
//    tail that happened to land, a miscalibrated spec, a bug).
//
// The DES node's own attribution is linuxk::analyze_interference (trace
// records per activity on the application cores) and
// noise::attribute_window (per-core accounting over a window).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fwq_campaign.h"
#include "noise/analytic.h"

namespace hpcos::obs::attrib {

// One campaign-ledger row: a source's measured theft vs its expectation.
struct LedgerRow {
  std::string source;
  noise::SourceKind kind = noise::SourceKind::kHardware;
  noise::SourceScope scope = noise::SourceScope::kPerCore;
  double stolen_us = 0.0;            // measured: sum of overhead it caused
  std::uint64_t hit_iterations = 0;  // iterations it lengthened
  double worst_us = 0.0;             // worst single overhead observed
  double share = 0.0;                // stolen / total stolen
  double expected_us = 0.0;          // analytic expectation for the config
  // (stolen - expected) / expected; +-inf-free: 0 when expected is 0 and
  // stolen is 0, +1 when stolen appeared out of nothing.
  double divergence = 0.0;
  bool flagged = false;  // |divergence| beyond the ledger's threshold
};

struct AttributionLedger {
  std::vector<LedgerRow> rows;  // descending stolen_us, ties by name
  double total_stolen_us = 0.0;
  // Overhead total implied by the campaign's Eq. 2 stats:
  // noise_rate * t_min_us * samples. rows' stolen_us sums to this up to
  // floating-point reassociation; reconciliation_error is the relative
  // difference (the invariant the attrib tests pin below 1e-9).
  double stats_overhead_us = 0.0;
  double reconciliation_error = 0.0;
  double flag_threshold = 0.0;
};

// Build the ledger from a finished campaign. `flag_threshold` is the
// relative divergence beyond which a row is flagged (default 0.5: gated
// population-tail sources legitimately wobble; a 50% miss on an ungated
// source means the spec and the sampler disagree).
AttributionLedger build_ledger(const cluster::FwqCampaignResult& result,
                               const noise::AnalyticNoiseProfile& profile,
                               const cluster::FwqCampaignConfig& config,
                               double flag_threshold = 0.5);

// Analytic expectation of one source's total theft over a campaign:
// active_nodes x arrivals x mean duration x iterations lengthened per
// arrival (exposed for tests).
double expected_stolen_us(const noise::NoiseSourceSpec& spec,
                          const cluster::FwqCampaignConfig& config);

// Analytic expectation of the jitter floor's total theft over `unhit`
// floor iterations: quantum * E[max(0, N(mean, sd))] per iteration.
double expected_floor_us(const noise::AnalyticNoiseProfile& profile,
                         const cluster::FwqCampaignConfig& config,
                         std::uint64_t unhit_iterations);

}  // namespace hpcos::obs::attrib
