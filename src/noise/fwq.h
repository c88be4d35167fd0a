// Fixed Work Quanta (FWQ) benchmark (LLNL; §6.2 of the paper).
//
// FWQ performs a fixed amount of pure computation per loop iteration and
// records each iteration's wall time; any excess over the minimum is OS
// noise. The paper configures ~6.5 ms quanta (the largest value below the
// 10 ms Linux tick) and runs one FWQ thread per application core.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "oskernel/kernel.h"

namespace hpcos::noise {

struct FwqConfig {
  // Work per iteration (pure compute, no memory / file I/O).
  SimTime work_quantum = SimTime::from_ms(6.5);
  std::uint64_t iterations = 1000;
};

// Per-thread iteration timings, in the order measured.
struct FwqTrace {
  hw::CoreId core = hw::kInvalidCore;
  std::vector<SimTime> iteration_times;
};

// The FWQ loop as a thread body. Timestamps come from the simulated clock,
// so every preemption, interrupt and stall the kernel imposes shows up in
// the iteration deltas exactly as it would on real hardware.
class FwqThread final : public os::ThreadBody {
 public:
  explicit FwqThread(FwqConfig config);

  void step(os::ThreadContext& ctx) override;

  bool finished() const { return finished_; }
  const FwqTrace& trace() const { return trace_; }
  // Hands the trace over without copying it, leaving this one empty: for a
  // caller that returns the traces once the run is done (run_fwq).
  FwqTrace take_trace() { return std::move(trace_); }

 private:
  FwqConfig config_;
  FwqTrace trace_;
  std::uint64_t iter_ = 0;
  SimTime iter_start_;
  bool started_ = false;
  bool finished_ = false;
};

// Convenience driver: spawn one FWQ thread pinned to each core in `cores`
// on `kernel`, run the simulation until all finish, and return the traces
// (indexed like `cores`). The caller owns the simulator clock; this runs
// it forward.
std::vector<FwqTrace> run_fwq(os::NodeKernel& kernel,
                              const hw::CpuSet& cores, FwqConfig config);

}  // namespace hpcos::noise
