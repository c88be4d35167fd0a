// Statistical noise sources and the per-node sampler of the FWQ campaign.
//
// The node DES reproduces noise mechanically (real kernel threads, IRQs,
// TLBI storms). That is exact but O(events); a full-scale Fugaku run
// (158,976 nodes x 48 cores x ~55k FWQ iterations) needs the statistical
// equivalent instead. A NoiseSourceSpec describes one source's arrival
// process and duration distribution; the same spec table parameterizes
// the DES subsystem generators (linuxk), the FWQ campaign
// (cluster/fwq_campaign) and the machine-noise sampler
// (cluster/machine_noise), and the test suite checks the campaign against
// the DES.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/trace.h"

namespace hpcos::noise {

// Lognormal duration, clamped to [min, max]; median/sigma parameterize the
// underlying distribution. Degenerates to a constant when sigma == 0.
struct DurationDist {
  SimTime median;
  double sigma = 0.0;
  SimTime min = SimTime::zero();
  SimTime max = SimTime::max();

  SimTime sample(RngStream& rng) const;
  // The same draw with log(median) precomputed: a loop over one source
  // takes log_median() once and passes it to every draw. Same result and
  // same RNG calls as sample(rng). It is sample_n's n = 1 case.
  SimTime sample(RngStream& rng, double log_median) const;
  // The next out.size() draws at once (RngStream::lognormal_ns, clamped):
  // the same values, and the stream left where, that many sample(rng,
  // log_median) calls would give and leave it.
  void sample_n(RngStream& rng, double log_median,
                std::span<SimTime> out) const;
  double log_median() const;
  // Expected value (clamping ignored; adequate for rate estimates).
  SimTime mean() const;
  // Inverse CDF (clamped); q in [0, 1].
  SimTime quantile(double q) const;
  // One draw distributed as max(X_1..X_k): for k <= 64 the max of the
  // next k draws (RngStream::max_normal, one exp), inverse-CDF of U^(1/k)
  // otherwise. This is what makes machine-scale "worst thread in the
  // barrier window" sampling O(1) instead of O(threads). sigma must not be
  // negative. A constant (sigma == 0) draws nothing up to k = 64 and one
  // uniform above.
  SimTime sample_max(std::uint64_t k, RngStream& rng) const;

  // sample_max's per-distribution constants. A loop that draws many maxima
  // of one distribution takes max_constants() once (a log, an erfc and a
  // log1p) and passes them to every draw.
  struct MaxConstants {
    double log_median = 0.0;
    // A k > 64 draw whose log(u) / k reaches this returns `max` without
    // the quantile's exp, inverse_normal_cdf and second exp (DESIGN §6
    // "Exact fast paths"); +infinity sends every draw through the quantile.
    double clamp_log_q = std::numeric_limits<double>::infinity();
  };
  MaxConstants max_constants() const;
  // The same draw with its constants precomputed: same result and same RNG
  // calls as sample_max(k, rng), which passes no clamp threshold.
  SimTime sample_max(std::uint64_t k, RngStream& rng,
                     const MaxConstants& c) const;
  // The k > 64 draw at uniform u: quantile(exp(log(u) / k)), u clamped to
  // [1e-12, 1 - 1e-12], or `max` once log(u) / k reaches clamp_log_q.
  SimTime max_quantile(double u, std::uint64_t k, double clamp_log_q) const;
};

// Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9
// absolute error); exposed for tests.
double inverse_normal_cdf(double p);

// How a source's occurrences map onto cores.
enum class SourceScope : std::uint8_t {
  kPerCore,            // independent arrival process on every app core
  kPerNodeRandomCore,  // node-level process; each hit lands on one core
                       // (an unbound daemon/kworker waking somewhere)
  kAllCores,           // each hit stalls every app core at once (PMU IPIs,
                       // broadcast TLBI victims)
};

// Which kernel subsystem generates the noise; linuxk uses this to route
// spec entries to its DES generators, and the countermeasure toggles
// enable/disable kinds wholesale.
enum class SourceKind : std::uint8_t {
  kDaemon,
  kKworker,
  kBlkMq,
  kPmuRead,
  kTlbiStorm,
  kSar,
  kDeviceIrq,
  kResidualTick,
  kHardware,  // non-OS jitter floor events (thermal, shared-resource)
};

// Trace category a kind's events are recorded under — the bridge between
// the statistical source table and ftrace-style TraceRecord analysis
// (noise tagging in the BSP engine, the trace-side attribution ledger).
sim::TraceCategory trace_category(SourceKind k);

struct NoiseSourceSpec {
  std::string name;
  SourceKind kind = SourceKind::kHardware;
  SourceScope scope = SourceScope::kPerCore;
  // Mean inter-arrival of the process at its scope (per core for kPerCore,
  // per node otherwise). Arrivals are Poisson.
  SimTime mean_interval;
  DurationDist duration;
  // Fraction of nodes that exhibit this source at all (straggler modeling:
  // a handful of nodes in 158k have a misbehaving service).
  double node_fraction = 1.0;
  // DES realization hint: number of daemon threads realizing a
  // kPerNodeRandomCore process (each gets interval * instances). The
  // statistical process is unchanged; purely spreads load across actors.
  int instances = 1;
};

struct AnalyticNoiseProfile {
  std::string name;
  std::vector<NoiseSourceSpec> sources;
  // Continuous hardware jitter floor: every compute interval is scaled by
  // (1 + max(0, N(mean, sd))).
  double base_jitter_mean = 0.0;
  double base_jitter_sd = 0.0;
};

// One node of an FWQ campaign (cluster::run_fwq_campaign): the constructor
// decides (per node_fraction) which sources are active on this node, so
// distinct nodes drawn from distinct streams form a heterogeneous
// population; the campaign draws each active source's hits itself.
class AnalyticNodeSampler {
 public:
  // `app_cores` must be positive.
  AnalyticNodeSampler(const AnalyticNoiseProfile& profile, int app_cores,
                      RngStream rng);
  // active_sources() indexes the profile, so it must outlive their use.
  AnalyticNodeSampler(AnalyticNoiseProfile&&, int, RngStream) = delete;

  // Wall time of one FWQ iteration of `quantum` work with the jitter floor
  // only (no discrete source hits).
  SimTime sample_floor_iteration(SimTime quantum);

  // Indices into profile.sources of the sources active on this node, in
  // profile order.
  const std::vector<std::size_t>& active_sources() const { return active_; }

 private:
  std::vector<std::size_t> active_;
  double base_jitter_mean_;
  double base_jitter_sd_;
  RngStream rng_;
};

}  // namespace hpcos::noise
