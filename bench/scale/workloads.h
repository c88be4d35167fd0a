// The four bench_scale workloads, one per scale at which the paper's
// results are produced and the simulator's users pay host time:
//
//   des_node       one Fugaku-testbed multi-kernel node in the DES: FWQ on
//                  44 application cores while 4 LWK threads offload stat()
//                  through IKC to the Linux proxy (Table 2, Fig. 3 scale);
//   des_cluster    8 OFP Linux nodes on one DES clock (2,048 FWQ threads):
//                  a deep, cancel-heavy event queue and no offload;
//   fig4_campaign  the five Fig. 4 FWQ campaigns at paper scale through the
//                  analytic sampler (no DES);
//   bsp_plans      all 43 (application, nodes) points of Figs. 5-7 through
//                  relative_performance (many small nested parallel tasks).
//
// Each rep is a pure function of its seed. The timed form calls the public
// entry points the figures use (noise::run_fwq, DesCluster::run_fwq_all,
// run_fwq_campaign, relative_performance); the traced form replays them by
// hand so that each layer call can be timed from outside, and must produce
// the same digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness.h"

namespace scale {

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RepCtx {
  std::uint64_t seed = 1;
  bool quick = false;
  std::size_t threads = 1;  // host threads of the parallel workloads
  bool traced = false;      // replay by hand and time each layer call
  Tracer* tracer = nullptr;
};

struct RepResult {
  double setup_s = 0.0;  // construction calls (nodes, profiles, envs, ...)
  double run_s = 0.0;    // the measured phase
  double cpu_s = 0.0;    // process CPU seconds over the measured phase
  double work = 0.0;     // events, nodes or BSP runs completed
  hpcos::JsonValue digest;          // seeded output fingerprint
  std::vector<LayerMetric> layers;  // traced reps only
  std::string error;                // first failed invariant, if any
};

// What the traced pass adds after the untraced and traced reps of a seed:
// comparison variants and layer microbenchmarks.
struct Extras {
  std::vector<LayerMetric> layers;
  int reps = 0;  // variant reps run
  std::vector<std::string> errors;
};

struct Workload {
  const char* name;
  const char* rate_name;  // what work_per_s counts on this workload
  RepResult (*rep)(const RepCtx& ctx);
  Extras (*extras)(const RepCtx& ctx, const RepResult& untraced,
                   const RepResult& traced);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace scale
