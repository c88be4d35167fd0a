#include "apps/registry.h"

#include "apps/amg.h"
#include "apps/gamera.h"
#include "apps/geofem.h"
#include "apps/lqcd.h"
#include "apps/lulesh.h"
#include "apps/milc.h"
#include "common/check.h"

namespace hpcos::apps {

std::unique_ptr<cluster::Workload> make_workload(const std::string& name,
                                                 PlatformKind platform) {
  if (name == "AMG2013") return std::make_unique<Amg2013>();
  if (name == "Milc") return std::make_unique<Milc>();
  if (name == "Lulesh") return std::make_unique<Lulesh>();
  if (name == "LQCD") {
    LqcdParams p;
    // The QWS/A64FX version keeps its hot loops in cache and registers
    // (deep SVE optimization); the x86 version streams from MCDRAM.
    p.mem_bound_fraction = platform == PlatformKind::kFugaku ? 0.25 : 0.75;
    return std::make_unique<Lqcd>(p);
  }
  if (name == "GeoFEM") return std::make_unique<GeoFem>();
  if (name == "GAMERA") return std::make_unique<Gamera>();
  HPCOS_CHECK_MSG(false, "unknown workload: " + name);
  return nullptr;
}

cluster::JobConfig job_geometry(const std::string& name,
                                PlatformKind platform, std::int64_t nodes) {
  cluster::JobConfig job;
  job.nodes = nodes;
  if (platform == PlatformKind::kFugaku) {
    job.ranks_per_node = 4;  // one rank per CMG
    job.threads_per_rank = 12;
    return job;
  }
  if (name == "LQCD") {
    job.ranks_per_node = 4;
    job.threads_per_rank = 32;
  } else if (name == "GeoFEM") {
    job.ranks_per_node = 16;
    job.threads_per_rank = 8;
  } else if (name == "GAMERA") {
    job.ranks_per_node = 8;
    job.threads_per_rank = 8;
  } else {
    // CORAL apps on the 256 designated application CPUs.
    job.ranks_per_node = 16;
    job.threads_per_rank = 16;
  }
  return job;
}

}  // namespace hpcos::apps
