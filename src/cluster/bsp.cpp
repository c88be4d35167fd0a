#include "cluster/bsp.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stats.h"

namespace hpcos::cluster {

SimTime RunResult::step_time(int step, int num_steps) const {
  HPCOS_CHECK(num_steps >= 1 && step >= 0 && step < num_steps);
  const std::size_t per_step = iteration_times.size() /
                               static_cast<std::size_t>(num_steps);
  HPCOS_CHECK_MSG(per_step > 0, "fewer iterations than steps");
  SimTime t = step == 0 ? init_time : SimTime::zero();
  const std::size_t begin = static_cast<std::size_t>(step) * per_step;
  const std::size_t end = step == num_steps - 1 ? iteration_times.size()
                                                : begin + per_step;
  for (std::size_t i = begin; i < end; ++i) t += iteration_times[i];
  return t;
}

BspEngine::BspEngine(const OsEnvironment& env, JobConfig job, Seed seed)
    : env_(env),
      job_(job),
      seed_(seed),
      collectives_(net::Fabric(env.fabric)),
      rdma_(env.rdma) {
  HPCOS_CHECK(job_.nodes >= 1);
  HPCOS_CHECK(job_.ranks_per_node >= 1 && job_.threads_per_rank >= 1);
}

void BspEngine::set_trace(sim::TraceBuffer* trace, hw::CoreId track,
                          SimTime anchor) {
  trace_ = trace;
  trace_track_ = track;
  trace_anchor_ = anchor;
}

RunResult BspEngine::run(const Workload& workload) {
  RunResult r;
  r.workload = workload.name();
  r.environment = env_.name;
  r.job = job_;

  RngStream rng(seed_, 0xB59);
  MachineNoiseSampler noise(env_.profile, job_.nodes,
                            job_.ranks_per_node * job_.threads_per_rank,
                            rng.split(1));
  const std::int64_t ranks = job_.total_ranks();

  // Phase span recording. The engine is analytic — there is no simulator
  // clock — so phases are laid out back to back on a virtual timeline
  // starting at the anchor (zero by default; a DES node's wall clock when
  // the caller wants the rank timeline overlaid on that node's trace),
  // which is exactly the per-rank time composition the result reports.
  sim::TraceBuffer* tb = trace_;
  const bool tracing = tb != nullptr && tb->enabled();
  SimTime cursor = trace_anchor_;
  auto span = [&](std::uint64_t parent, SimTime at, SimTime dur,
                  std::string label,
                  sim::TraceCategory cat) -> std::uint64_t {
    const std::uint64_t id = tb->new_span();
    tb->record(sim::TraceRecord{.time = at,
                                .core = trace_track_,
                                .category = cat,
                                .duration = dur,
                                .label = std::move(label),
                                .span = id,
                                .parent = parent});
    return id;
  };

  // ---- init phase ----
  const InitWork init = workload.init_work(job_, env_);
  const SimTime init_fault = env_.fault_in(init.touch_bytes);
  SimTime init_rdma = SimTime::zero();
  if (init.rdma_registrations > 0) {
    // Every rank performs its registrations serially; the job then
    // barriers, so init completes at the slowest rank's pace. The tail of
    // a single registration is what differs across paths (§5.1).
    const SimTime median =
        rdma_.median_cost(env_.rdma_path, init.rdma_bytes_each);
    const SimTime rank_median = median * init.rdma_registrations;
    const SimTime worst_single = rdma_.sample_worst_of(
        env_.rdma_path, init.rdma_bytes_each,
        static_cast<std::uint64_t>(ranks) *
            static_cast<std::uint64_t>(init.rdma_registrations),
        rng);
    init_rdma = rank_median + (worst_single - median);
  }
  const SimTime init_barrier = collectives_.barrier(ranks);
  const SimTime init_time =
      init.serial_setup + init_fault + init_rdma + init_barrier;
  r.init_time = init_time;
  if (tracing) {
    const std::uint64_t root = span(0, cursor, init_time, "bsp:init",
                                    sim::TraceCategory::kCollective);
    SimTime at = cursor;
    auto phase = [&](SimTime dur, const char* label,
                     sim::TraceCategory cat) {
      if (dur > SimTime::zero()) span(root, at, dur, label, cat);
      at += dur;
    };
    phase(init.serial_setup, "init:setup", sim::TraceCategory::kUser);
    phase(init_fault, "init:fault-in", sim::TraceCategory::kPageFault);
    phase(init_rdma, "init:rdma-register",
          sim::TraceCategory::kCollective);
    phase(init_barrier, "init:barrier", sim::TraceCategory::kCollective);
  }
  cursor += init_time;

  // ---- iteration loop ----
  const int iters = workload.iterations();
  r.iteration_times.reserve(static_cast<std::size_t>(iters));
  SimTime total = init_time;
  // The terms below that come before the random draws depend only on the
  // RankWork, and workloads return the same one for every iteration after
  // the first, so they are recomputed only when the RankWork changes.
  RankWork w;
  SimTime compute_time, fault_time, tbar_time, churn_med, rank_time;
  SimTime allreduce_time, halo_time, barrier_time;
  noise::DurationDist churn_tail, imbalance;
  noise::DurationDist::MaxConstants churn_max, imbalance_max;
  for (int it = 0; it < iters; ++it) {
    const RankWork next = workload.rank_work(it, job_, env_);
    if (it == 0 || next != w) {
      w = next;
      compute_time = w.compute.scaled(env_.tlb_compute_factor(
          w.working_set_bytes, w.mem_bound_fraction,
          w.large_page_coverage_hint));
      fault_time = env_.fault_in(w.touch_bytes);
      tbar_time = SimTime::zero();
      if (w.thread_barriers > 0) {
        // Intra-rank OpenMP synchronization; Fugaku's runtime drives the
        // A64FX hardware barrier (§4.1.5), other platforms use a software
        // tree. Identical across the OSes of one platform — both expose
        // the device — but part of the honest time composition.
        const hw::HwBarrier barrier(env_.platform.hw_barrier);
        tbar_time =
            barrier.barrier_cost(job_.threads_per_rank) * w.thread_barriers;
      }
      // Heap churn: medians paid by everyone; the slowest rank's tail adds
      // on top (the barrier waits for it).
      churn_med = SimTime::zero();
      if (w.alloc_churn_bytes > 0) {
        churn_med = env_.churn_median(w.alloc_churn_bytes);
        churn_tail = noise::DurationDist{
            .median = churn_med,
            .sigma = env_.mem.churn_sigma,
            .min = SimTime::zero(),
            .max = churn_med.scaled(env_.mem.churn_max_factor)};
        churn_max = churn_tail.max_constants();
      }
      rank_time = compute_time + fault_time + tbar_time + churn_med;
      // Compute imbalance across ranks (application property, OS-neutral).
      if (w.imbalance_sigma > 0.0) {
        imbalance = noise::DurationDist{.median = rank_time,
                                        .sigma = w.imbalance_sigma,
                                        .min = SimTime::zero(),
                                        .max = rank_time.scaled(10.0)};
        imbalance_max = imbalance.max_constants();
      }
      // Communication.
      allreduce_time = SimTime::zero();
      halo_time = SimTime::zero();
      barrier_time = SimTime::zero();
      if (w.allreduces > 0) {
        allreduce_time =
            collectives_.allreduce(ranks, w.allreduce_bytes) * w.allreduces;
      }
      if (w.halo_neighbors > 0) {
        halo_time = net::Fabric(env_.fabric)
                        .halo_exchange(w.halo_bytes, w.halo_neighbors);
      }
      if (w.barriers > 0) {
        barrier_time = collectives_.barrier(ranks) * w.barriers;
      }
    }

    SimTime churn_extra = SimTime::zero();
    if (w.alloc_churn_bytes > 0) {
      churn_extra = churn_tail.sample_max(static_cast<std::uint64_t>(ranks),
                                          rng, churn_max) -
                    churn_med;
      if (churn_extra.is_negative()) churn_extra = SimTime::zero();
    }
    SimTime imbalance_extra = SimTime::zero();
    if (w.imbalance_sigma > 0.0) {
      imbalance_extra = imbalance.sample_max(
                            static_cast<std::uint64_t>(ranks), rng,
                            imbalance_max) -
                        rank_time;
      if (imbalance_extra.is_negative()) imbalance_extra = SimTime::zero();
    }

    // OS noise across the machine during the busy window (Eq. 1). The
    // attributed form draws the identical sequence, so tracing on/off
    // never changes the simulated result.
    const GlobalDelaySample noise_sample =
        noise.sample_global_delay_attributed(rank_time);
    const SimTime noise_delay = noise_sample.delay;
    const SimTime comm = allreduce_time + halo_time + barrier_time;

    const SimTime iter_time =
        rank_time + churn_extra + imbalance_extra + noise_delay + comm;
    r.iteration_times.push_back(iter_time);
    total += iter_time;

    if (tracing) {
      const std::uint64_t root = span(0, cursor, iter_time,
                                      "bsp:iteration",
                                      sim::TraceCategory::kCollective);
      SimTime at = cursor;
      auto phase = [&](SimTime dur, const char* label,
                       sim::TraceCategory cat) -> std::uint64_t {
        std::uint64_t id = 0;
        if (dur > SimTime::zero()) id = span(root, at, dur, label, cat);
        at += dur;
        return id;
      };
      phase(compute_time, "bsp:compute", sim::TraceCategory::kUser);
      phase(fault_time, "bsp:fault-in", sim::TraceCategory::kPageFault);
      phase(tbar_time, "bsp:thread-barrier", sim::TraceCategory::kUser);
      phase(churn_med, "bsp:heap-churn", sim::TraceCategory::kUser);
      phase(churn_extra, "bsp:churn-tail", sim::TraceCategory::kUser);
      phase(imbalance_extra, "bsp:imbalance", sim::TraceCategory::kUser);
      const SimTime wait_at = at;
      const std::uint64_t wait = phase(noise_delay, "bsp:noise-wait",
                                       sim::TraceCategory::kScheduler);
      if (wait != 0 && !noise_sample.source.empty()) {
        // Tag the wait with its dominant machine-noise source: the
        // straggler analysis reads this child to answer "who stalled the
        // barrier this iteration". The event duration is the worst hit;
        // the remainder of the wait is the max-of-N jitter floor.
        const SimTime event = noise_sample.worst_event.is_zero()
                                  ? noise_delay
                                  : noise_sample.worst_event;
        span(wait, wait_at, event, "noise:" + noise_sample.source,
             noise::trace_category(noise_sample.kind));
      }
      const SimTime ar_at = at;
      const std::uint64_t ar = phase(allreduce_time, "bsp:allreduce",
                                     sim::TraceCategory::kCollective);
      if (ar != 0) {
        const auto split =
            collectives_.allreduce_phases(ranks, w.allreduce_bytes);
        const SimTime rs = split.reduce_scatter * w.allreduces;
        span(ar, ar_at, rs, "allreduce:reduce-scatter",
             sim::TraceCategory::kCollective);
        span(ar, ar_at + rs, allreduce_time - rs, "allreduce:allgather",
             sim::TraceCategory::kCollective);
      }
      phase(halo_time, "bsp:halo", sim::TraceCategory::kCollective);
      phase(barrier_time, "bsp:barrier", sim::TraceCategory::kCollective);
    }
    cursor += iter_time;
  }
  r.total = total;
  return r;
}

RelativeResult relative_performance(const Workload& workload,
                                    const OsEnvironment& baseline,
                                    const OsEnvironment& candidate,
                                    JobConfig job, int trials, Seed seed,
                                    std::size_t threads) {
  HPCOS_CHECK(trials >= 1);
  // Each trial derives its own seed and writes its ratio into its own
  // slot; the workload and environments are shared read-only. Callers
  // like run_plan invoke this from inside their own parallel_for: the
  // trials then run as a nested task group on the host scheduler, and
  // the rank-ordered fold below keeps the result
  // bit-identical for any (outer, inner) host thread combination.
  std::vector<double> ratios(static_cast<std::size_t>(trials), 0.0);
  parallel_for(
      static_cast<std::size_t>(trials),
      [&](std::size_t t) {
        const Seed s{seed.value + static_cast<std::uint64_t>(t) * 0x9E37ull};
        BspEngine base_engine(baseline, job, s);
        BspEngine cand_engine(candidate, job, s);
        const RunResult b = base_engine.run(workload);
        const RunResult c = cand_engine.run(workload);
        ratios[t] = b.total.ratio(c.total);  // time ratio = perf ratio
      },
      threads);
  OnlineStats st;
  for (double v : ratios) st.add(v);  // trial order: thread-count invariant
  return RelativeResult{.mean_ratio = st.mean(), .stddev_ratio = st.stddev()};
}

}  // namespace hpcos::cluster
