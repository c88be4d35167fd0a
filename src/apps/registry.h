// Application registry: workloads by name, with the per-platform run
// geometries the paper's artifact description specifies.
//
// OFP (appendix): LQCD 4 ranks x 32 threads, GeoFEM 16 x 8, GAMERA 8 x 8;
// the CORAL apps use the 256 designated application CPUs as 16 x 16.
// Fugaku: every application runs 4 ranks x 12 threads (one rank per CMG).
#pragma once

#include <memory>
#include <string>

#include "cluster/osenv.h"
#include "cluster/workload.h"

namespace hpcos::apps {

enum class PlatformKind { kOfp, kFugaku };

// Construct a workload by name ("AMG2013", "Milc", "Lulesh", "LQCD",
// "GeoFEM", "GAMERA"), tuned for the given platform (e.g. the LQCD
// aarch64/QWS version is cache-optimized; the x86 version is memory
// bound). Throws SimError for unknown names.
std::unique_ptr<cluster::Workload> make_workload(const std::string& name,
                                                 PlatformKind platform);

// Ranks/threads per node for a workload on a platform (appendix values).
cluster::JobConfig job_geometry(const std::string& name,
                                PlatformKind platform, std::int64_t nodes);

}  // namespace hpcos::apps
