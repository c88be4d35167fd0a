// Bulk-synchronous-parallel cluster engine.
//
// Runs a Workload on a machine configuration under one OsEnvironment and
// produces per-iteration and total times. Per iteration:
//
//   T_rank   = compute x TLB-mix factor
//            + churn median + fault-in
//   T_iter   = T_rank
//            + (worst-rank imbalance extra)
//            + (worst-rank churn-tail extra)
//            + machine-wide noise delay over the busy window  (Eq. 1)
//            + collectives (allreduce / halo / barrier)
//
// Every rank pays the medians; the barrier additionally waits for the
// worst rank's tail terms, which is where scale enters.
#pragma once

#include <vector>

#include "cluster/machine_noise.h"
#include "cluster/osenv.h"
#include "cluster/workload.h"
#include "net/collectives.h"
#include "sim/trace.h"

namespace hpcos::cluster {

struct RunResult {
  std::string workload;
  std::string environment;
  JobConfig job;
  SimTime init_time;
  std::vector<SimTime> iteration_times;
  SimTime total;  // init + sum(iterations)

  double total_seconds() const { return total.to_sec(); }
  // Wall time of one of `num_steps` equal slices of the iteration loop,
  // with the init phase folded into step 0 (how GAMERA's per-step numbers
  // read: setup dominates the first time step, §6.4).
  SimTime step_time(int step, int num_steps) const;
};

class BspEngine {
 public:
  BspEngine(const OsEnvironment& env, JobConfig job, Seed seed);

  // Optional whole-run span recording: when set, run() writes one
  // parent-linked phase tree per init/iteration (compute, fault-in,
  // churn, noise-wait, allreduce split, halo, barrier) into `trace` on
  // the synthetic timeline track `track` (used as the record's core id;
  // exporters turn it into a named rank track). nullptr detaches.
  //
  // `anchor` places the rank timeline on an absolute clock: phase spans
  // start at `anchor` instead of zero, so a run anchored at a DES node's
  // current simulator time shares that node's wall timeline and FWQ/noise
  // trace events can be overlaid directly on the bsp:* windows
  // (obs/attrib). The default keeps the historical zero-based virtual
  // timeline. The dominant machine-noise source of each iteration's
  // noise-wait is tagged as a `noise:<source>` child span.
  void set_trace(sim::TraceBuffer* trace, hw::CoreId track = 0,
                 SimTime anchor = SimTime::zero());

  RunResult run(const Workload& workload);

 private:
  const OsEnvironment& env_;
  JobConfig job_;
  Seed seed_;
  net::Collectives collectives_;
  net::RdmaRegistrationModel rdma_;
  sim::TraceBuffer* trace_ = nullptr;
  hw::CoreId trace_track_ = 0;
  SimTime trace_anchor_;
};

// Convenience: mean relative performance of `env` vs `baseline` over
// `trials` seeded runs (the paper's bars: Linux normalized to 1.0).
// Trials run across the host worker pool (each trial owns its seeded
// engines and an index-addressed result slot, merged in trial order, so
// the result is identical for any `threads`); threads = 0 uses
// default_parallelism(), 1 runs serially.
struct RelativeResult {
  double mean_ratio = 0.0;   // candidate perf / baseline perf
  double stddev_ratio = 0.0;
};
RelativeResult relative_performance(const Workload& workload,
                                    const OsEnvironment& baseline,
                                    const OsEnvironment& candidate,
                                    JobConfig job, int trials, Seed seed,
                                    std::size_t threads = 0);

}  // namespace hpcos::cluster
