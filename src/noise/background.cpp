#include "noise/background.h"

#include "common/check.h"

namespace hpcos::noise {

DaemonBody::DaemonBody(SimTime mean_interval, DurationDist duration,
                       RngStream rng)
    : mean_interval_(mean_interval), duration_(duration), rng_(rng) {}

void DaemonBody::step(os::ThreadContext& ctx) {
  if (computing_) {
    computing_ = false;
    ctx.sleep_for(rng_.exponential_time(mean_interval_));
  } else {
    computing_ = true;
    ctx.compute(duration_.sample(rng_));
  }
}

BackgroundActivity::BackgroundActivity(os::NodeKernel& kernel,
                                       AnalyticNoiseProfile profile,
                                       hw::CpuSet target_cores,
                                       hw::CpuSet system_cores,
                                       os::ChipStallBus* bus, RngStream rng)
    : kernel_(kernel),
      profile_(std::move(profile)),
      target_cores_(std::move(target_cores)),
      system_cores_(std::move(system_cores)),
      bus_(bus),
      rng_(rng),
      target_list_(target_cores_.to_vector()) {}

void BackgroundActivity::start() {
  HPCOS_CHECK_MSG(!started_, "BackgroundActivity already started");
  started_ = true;
  std::uint64_t index = 0;
  for (const auto& spec : profile_.sources) {
    RngStream src_rng = rng_.split(index);
    ++index;
    if (spec.node_fraction < 1.0 && !src_rng.bernoulli(spec.node_fraction)) {
      continue;
    }
    ++active_sources_;
    start_source(spec, index);
  }
}

void BackgroundActivity::start_source(const NoiseSourceSpec& spec,
                                      std::uint64_t index) {
  
  if (spec.kind == SourceKind::kResidualTick) {
    return;  // realized by the kernel's tick driver, not a generator
  }

  if (spec.kind == SourceKind::kDaemon) {
    // Real threads under the scheduler; "unbound" affinity (all cores this
    // kernel owns) is what lets CFS wake them on application cores.
    const int n = std::max(1, spec.instances);
    for (int i = 0; i < n; ++i) {
      os::SpawnAttrs attrs;
      attrs.name = spec.name + "-" + std::to_string(i);
      attrs.background = true;
      auto body = std::make_unique<DaemonBody>(
          spec.mean_interval * n, spec.duration,
          rng_.split(index * 1024 + static_cast<std::uint64_t>(i)));
      kernel_.spawn(std::move(body), std::move(attrs));
    }
    return;
  }

  // Event generators.
  if (spec.scope == SourceScope::kPerCore) {
    std::uint64_t sub = 0;
    for (hw::CoreId core : target_list_) {
      arm_generator(spec, rng_.split(index * 4096 + sub), core);
      ++sub;
    }
  } else {
    arm_generator(spec, rng_.split(index * 4096 + 4095), hw::kInvalidCore);
  }
}

void BackgroundActivity::arm_generator(const NoiseSourceSpec& spec,
                                       RngStream rng, hw::CoreId fixed_core) {
  generator_rngs_.push_back(std::make_unique<RngStream>(rng));
  schedule_arrival(spec, *generator_rngs_.back(), fixed_core);
}

void BackgroundActivity::schedule_arrival(const NoiseSourceSpec& spec,
                                          RngStream& rng,
                                          hw::CoreId fixed_core) {
  // Self-rescheduling arrival process. `spec` aliases into profile_ and
  // `rng` into generator_rngs_, both owned by this object, which outlives
  // the simulator's pending events.
  kernel_.simulator().schedule_after(
      rng.exponential_time(spec.mean_interval),
      [this, &spec, &rng, fixed_core] {
        fire(spec, rng, fixed_core);
        schedule_arrival(spec, rng, fixed_core);
      },
      "noise.daemon");
}

void BackgroundActivity::fire(const NoiseSourceSpec& spec,
                              RngStream& rng, hw::CoreId fixed_core) {
  switch (spec.scope) {
    case SourceScope::kPerCore:
      deliver(spec, fixed_core, spec.duration.sample(rng));
      return;
    case SourceScope::kPerNodeRandomCore: {
      if (target_list_.empty()) return;
      const hw::CoreId core =
          target_list_[rng.uniform_index(target_list_.size())];
      deliver(spec, core, spec.duration.sample(rng));
      return;
    }
    case SourceScope::kAllCores: {
      if (spec.kind == SourceKind::kTlbiStorm) {
        // One storm: every other core on the chip stalls for the sampled
        // total (flush_count x 200 ns), §4.2.2.
        const SimTime total = spec.duration.sample(rng);
        const hw::CoreId initiator = system_cores_.any()
                                         ? system_cores_.first()
                                         : hw::kInvalidCore;
        if (bus_ != nullptr) {
          bus_->broadcast_stall(initiator, total,
                                sim::TraceCategory::kTlbShootdown, spec.name);
        } else {
          kernel_.stall_all_cores_except(
              initiator, total, sim::TraceCategory::kTlbShootdown, spec.name);
        }
        return;
      }
      for (hw::CoreId core : target_list_) {
        deliver(spec, core, spec.duration.sample(rng));
      }
      return;
    }
  }
}

void BackgroundActivity::deliver(const NoiseSourceSpec& spec,
                                 hw::CoreId core, SimTime duration) {
    if (duration.is_zero()) return;
  switch (spec.kind) {
    case SourceKind::kKworker:
      kernel_.interrupt_core(core, duration, sim::TraceCategory::kKworker,
                             spec.name);
      return;
    case SourceKind::kBlkMq:
      kernel_.interrupt_core(core, duration, sim::TraceCategory::kBlkMq,
                             spec.name);
      return;
    case SourceKind::kPmuRead:
      kernel_.interrupt_core(core, duration, sim::TraceCategory::kPmuRead,
                             spec.name);
      return;
    case SourceKind::kDeviceIrq:
      kernel_.interrupt_core(core, duration, sim::TraceCategory::kIrq,
                             spec.name);
      return;
    case SourceKind::kSar:
    case SourceKind::kHardware:
      // Shared-resource contention: pure execution-time inflation, no
      // kernel instructions on the victim core.
      kernel_.stall_core(core, duration, sim::TraceCategory::kUser,
                         spec.name);
      return;
    case SourceKind::kDaemon:
    case SourceKind::kTlbiStorm:
    case SourceKind::kResidualTick:
      HPCOS_CHECK_MSG(false, "source kind handled elsewhere");
  }
}

}  // namespace hpcos::noise
