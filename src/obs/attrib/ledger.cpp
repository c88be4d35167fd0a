#include "obs/attrib/ledger.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "common/check.h"
#include "sim/span_tree.h"

namespace hpcos::obs::attrib {
namespace {

// P(X <= x) for X ~ N(0, 1).
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// E[max(0, X)] for X ~ N(mean, sd): mean*Phi(mean/sd) + sd*phi(mean/sd).
double expected_positive_part(double mean, double sd) {
  if (sd <= 0.0) return std::max(0.0, mean);
  const double z = mean / sd;
  const double phi =
      std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.141592653589793);
  return mean * normal_cdf(z) + sd * phi;
}

}  // namespace

double expected_stolen_us(const noise::NoiseSourceSpec& spec,
                          const cluster::FwqCampaignConfig& config) {
  // Mirrors cluster::simulate_node's occurrence model: arrivals over the
  // campaign per node, and how many core-iterations each arrival
  // lengthens.
  double processes = 1.0;
  double cores_per_hit = 1.0;
  switch (spec.scope) {
    case noise::SourceScope::kPerCore:
      processes = static_cast<double>(config.app_cores);
      break;
    case noise::SourceScope::kPerNodeRandomCore:
      break;
    case noise::SourceScope::kAllCores:
      cores_per_hit = static_cast<double>(config.app_cores);
      break;
  }
  const double arrivals_per_node =
      config.duration_per_core.ratio(spec.mean_interval) * processes;
  const double mean_us = spec.duration.mean().to_us();
  const double active_nodes =
      static_cast<double>(config.nodes) * spec.node_fraction;
  return active_nodes * arrivals_per_node * cores_per_hit * mean_us;
}

double expected_floor_us(const noise::AnalyticNoiseProfile& profile,
                         const cluster::FwqCampaignConfig& config,
                         std::uint64_t unhit_iterations) {
  const double per_iter = config.work_quantum.to_us() *
                          expected_positive_part(profile.base_jitter_mean,
                                                 profile.base_jitter_sd);
  return per_iter * static_cast<double>(unhit_iterations);
}

AttributionLedger build_ledger(const cluster::FwqCampaignResult& result,
                               const noise::AnalyticNoiseProfile& profile,
                               const cluster::FwqCampaignConfig& config,
                               double flag_threshold) {
  HPCOS_CHECK_MSG(
      result.per_source.size() == profile.sources.size() + 1,
      "campaign result and profile disagree on the source table");

  AttributionLedger ledger;
  ledger.flag_threshold = flag_threshold;

  std::uint64_t hit_total = 0;
  for (const auto& a : result.per_source) {
    ledger.total_stolen_us += a.stolen_us;
    if (a.source != "jitter-floor") hit_total += a.hit_iterations;
  }
  const std::uint64_t unhit = result.total_iterations > hit_total
                                  ? result.total_iterations - hit_total
                                  : 0;

  ledger.rows.reserve(result.per_source.size());
  for (std::size_t i = 0; i < result.per_source.size(); ++i) {
    const auto& a = result.per_source[i];
    LedgerRow row;
    row.source = a.source;
    row.kind = a.kind;
    row.scope = a.scope;
    row.stolen_us = a.stolen_us;
    row.hit_iterations = a.hit_iterations;
    row.worst_us = a.worst_us;
    row.share = ledger.total_stolen_us > 0.0
                    ? a.stolen_us / ledger.total_stolen_us
                    : 0.0;
    row.expected_us =
        i + 1 == result.per_source.size()
            ? expected_floor_us(profile, config, unhit)
            : expected_stolen_us(profile.sources[i], config);
    if (row.expected_us > 0.0) {
      row.divergence = (row.stolen_us - row.expected_us) / row.expected_us;
    } else {
      row.divergence = row.stolen_us > 0.0 ? 1.0 : 0.0;
    }
    row.flagged = std::abs(row.divergence) > flag_threshold;
    ledger.rows.push_back(std::move(row));
  }
  std::sort(ledger.rows.begin(), ledger.rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              if (a.stolen_us != b.stolen_us) return a.stolen_us > b.stolen_us;
              return a.source < b.source;
            });

  // Eq. 2 inversion: noise_rate = overhead / (t_min * samples), so the
  // stats imply this overhead total. The per-source sums mirror the same
  // terms in a different association order; reconciliation error is pure
  // floating point and must stay tiny.
  ledger.stats_overhead_us =
      result.stats.noise_rate * result.stats.t_min.to_us() *
      static_cast<double>(result.stats.samples);
  const double denom =
      std::max(std::abs(ledger.stats_overhead_us), 1e-12);
  ledger.reconciliation_error =
      std::abs(ledger.total_stolen_us - ledger.stats_overhead_us) / denom;
  return ledger;
}

std::vector<TraceTheftRow> trace_ledger(
    const std::vector<sim::TraceRecord>& records) {
  const sim::SpanForest forest(records);
  std::map<std::tuple<std::string, sim::TraceCategory, hw::CoreId>,
           TraceTheftRow>
      by_key;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (r.span == 0) continue;
    const std::string source =
        r.label.empty() ? sim::to_string(r.category) : r.label;
    auto key = std::make_tuple(source, r.category, r.core);
    TraceTheftRow& row = by_key[key];
    if (row.spans == 0) {
      row.source = source;
      row.category = r.category;
      row.core = r.core;
    }
    row.self_time_us += forest.self_time(i).to_us();
    ++row.spans;
  }
  std::vector<TraceTheftRow> rows;
  rows.reserve(by_key.size());
  for (auto& [key, row] : by_key) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const TraceTheftRow& a, const TraceTheftRow& b) {
              if (a.self_time_us != b.self_time_us) {
                return a.self_time_us > b.self_time_us;
              }
              if (a.source != b.source) return a.source < b.source;
              return a.core < b.core;
            });
  return rows;
}

}  // namespace hpcos::obs::attrib
