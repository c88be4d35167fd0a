// Canonical noise-source parameter tables for the study's environments.
//
// One table per OS environment; the numbers are calibrated so the
// regenerated Table 2 / Figure 3 / Figure 4 match the paper's reported
// magnitudes (see EXPERIMENTS.md for paper-vs-measured). The same specs
// configure both the linuxk DES generators and the cluster-scale samplers
// (the FWQ campaign, the machine-noise sampler), so micro (FWQ on one
// node) and macro (full-machine CDFs, application runs) views stay
// mutually consistent.
#pragma once

#include "noise/analytic.h"

namespace hpcos::noise {

// §4.2's individually-toggleable countermeasures. All true == production
// Fugaku. Each `false` re-enables the corresponding noise source, which is
// exactly how Table 2 was measured. The model has no cpumasks to move: a
// binding countermeasure removes its source's spec row.
struct Countermeasures {
  bool bind_daemons = true;        // daemons -> assistant cores (cgroup)
  bool bind_kworkers = true;       // unbound kworkers -> assistant cores
  bool bind_blkmq = true;          // blk-mq hw ctx cpumask -> assistant
  bool stop_pmu_reads = true;      // suppress TCS periodic PMU collection
  bool suppress_global_tlbi = true;  // RHEL 8.2 single-core TLBI patch

  bool all_enabled() const {
    return bind_daemons && bind_kworkers && bind_blkmq && stop_pmu_reads &&
           suppress_global_tlbi;
  }
};

// Highly tuned Fugaku Linux (RHEL 8.3 + §4 countermeasures). The residual
// baseline (sar monitoring, residual nohz tick, hardware floor) is always
// present; disabled countermeasures add their sources back.
AnalyticNoiseProfile fugaku_linux_profile(const Countermeasures& cm = {});

// Fugaku IHK/McKernel: no ticks, no daemons, no kernel threads on LWK
// cores; only the hardware floor remains.
AnalyticNoiseProfile fugaku_mckernel_profile();

// Remove population-tail sources (node_fraction < 1). The dedicated
// 16-node testbed of Table 2 / Figure 3 is a hand-maintained system that
// does not exhibit the big machine's per-node heterogeneity.
AnalyticNoiseProfile strip_population_tails(AnalyticNoiseProfile profile);

// Moderately tuned OFP Linux (CentOS 7.3): nohz_full only — daemons and
// kworkers are unbound, IRQs balanced across the chip, THP management
// active. This is why Figure 4a is so much worse than 4b.
AnalyticNoiseProfile ofp_linux_profile();

// OFP IHK/McKernel: LWK cores quiet; KNL hardware floor (SMT sharing,
// MCDRAM refresh) remains.
AnalyticNoiseProfile ofp_mckernel_profile();

}  // namespace hpcos::noise
