#include "noise/fwq.h"

#include "common/check.h"

namespace hpcos::noise {

FwqThread::FwqThread(FwqConfig config) : config_(config) {
  HPCOS_CHECK(config_.work_quantum > SimTime::zero());
  HPCOS_CHECK(config_.iterations > 0);
  trace_.iteration_times.reserve(config_.iterations);
}

void FwqThread::step(os::ThreadContext& ctx) {
  if (started_) {
    // Previous quantum completed: the measured iteration time is wall time,
    // not work time — noise shows up as the difference.
    trace_.iteration_times.push_back(ctx.now() - iter_start_);
  } else {
    trace_.core = ctx.core();
    started_ = true;
  }
  if (iter_ >= config_.iterations) {
    finished_ = true;
    ctx.exit();
    return;
  }
  ++iter_;
  iter_start_ = ctx.now();
  ctx.compute(config_.work_quantum);
}

std::vector<FwqTrace> run_fwq(os::NodeKernel& kernel, const hw::CpuSet& cores,
                              FwqConfig config) {
  std::vector<FwqThread*> bodies;
  const auto core_list = cores.to_vector();
  bodies.reserve(core_list.size());

  for (hw::CoreId core : core_list) {
    auto body = std::make_unique<FwqThread>(config);
    bodies.push_back(body.get());
    os::SpawnAttrs attrs;
    attrs.name = "fwq-" + std::to_string(core);
    attrs.affinity =
        hw::CpuSet::of(static_cast<std::size_t>(
                           kernel.topology().logical_cores()),
                       {core});
    kernel.spawn(std::move(body), std::move(attrs));
  }

  // Drive the simulation until every FWQ thread has finished. The guard
  // bounds runaway event loops (bodies that never progress).
  auto all_done = [&] {
    for (const FwqThread* b : bodies) {
      if (!b->finished()) return false;
    }
    return true;
  };
  while (!all_done()) {
    const bool progressed = kernel.simulator().step();
    HPCOS_CHECK_MSG(progressed, "FWQ deadlock: event queue drained early");
  }

  std::vector<FwqTrace> out;
  out.reserve(bodies.size());
  for (FwqThread* b : bodies) out.push_back(b->take_trace());
  return out;
}

}  // namespace hpcos::noise
