// Background activity generators: the DES realization of a noise profile.
//
// Each NoiseSourceSpec becomes either a real daemon thread (scheduled by
// CFS, preempting application threads exactly the way systemd units do) or
// an event generator injecting kernel-mode interrupts / hardware stalls
// (kworkers, blk-mq completions, PMU IPIs, TLBI storms, sar contention).
// The statistical parameters are identical to what the cluster-scale
// samplers (the FWQ campaign, the machine-noise sampler) use, keeping
// node-DES and cluster-scale results consistent.
#pragma once

#include <vector>

#include "common/rng.h"
#include "noise/analytic.h"
#include "oskernel/kernel.h"
#include "oskernel/stall_bus.h"

namespace hpcos::noise {

// An OS daemon: sleeps for ~interval, wakes, burns CPU for a sampled
// duration, repeats. Where it wakes is the scheduler's business — which is
// precisely the daemon-binding countermeasure's lever.
class DaemonBody final : public os::ThreadBody {
 public:
  DaemonBody(SimTime mean_interval, DurationDist duration,
             RngStream rng);
  void step(os::ThreadContext& ctx) override;

 private:
  SimTime mean_interval_;
  DurationDist duration_;
  RngStream rng_;
  bool computing_ = false;
};

class BackgroundActivity {
 public:
  // `target_cores`: where generated noise lands (the application cores of
  // the partition this kernel owns). `system_cores`: where TLBI storm
  // initiators live. `bus`: chip-wide stall distribution for broadcast
  // TLBI; falls back to kernel-local stalls when null.
  BackgroundActivity(os::NodeKernel& kernel,
                     AnalyticNoiseProfile profile,
                     hw::CpuSet target_cores, hw::CpuSet system_cores,
                     os::ChipStallBus* bus, RngStream rng);

  // Spawn daemon threads and arm the generators. Call once.
  void start();

  std::size_t active_source_count() const { return active_sources_; }

 private:
  void start_source(const NoiseSourceSpec& spec, std::uint64_t index);
  void arm_generator(const NoiseSourceSpec& spec, RngStream rng,
                     hw::CoreId fixed_core);
  void schedule_arrival(const NoiseSourceSpec& spec, RngStream& rng,
                        hw::CoreId fixed_core);
  void fire(const NoiseSourceSpec& spec, RngStream& rng,
            hw::CoreId fixed_core);
  void deliver(const NoiseSourceSpec& spec, hw::CoreId core,
               SimTime duration);

  os::NodeKernel& kernel_;
  AnalyticNoiseProfile profile_;
  hw::CpuSet target_cores_;
  hw::CpuSet system_cores_;
  os::ChipStallBus* bus_;
  RngStream rng_;
  std::vector<hw::CoreId> target_list_;
  // Generator RNGs must outlive the scheduled closures that reference them.
  std::vector<std::unique_ptr<RngStream>> generator_rngs_;
  std::size_t active_sources_ = 0;
  bool started_ = false;
};

}  // namespace hpcos::noise
