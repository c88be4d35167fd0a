// Workload interface for the cluster-scale BSP engine.
//
// An application model describes, per rank and iteration, the quantities
// the OS comparison turns on: compute time, working-set size (TLB reach),
// allocation churn (the Linux heap path), first-touch volume, and the
// communication pattern. The engine (bsp.h) prices those under a given
// OsEnvironment.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_time.h"

namespace hpcos::cluster {

struct OsEnvironment;  // osenv.h

struct JobConfig {
  std::int64_t nodes = 1;
  int ranks_per_node = 4;
  int threads_per_rank = 12;

  std::int64_t total_ranks() const { return nodes * ranks_per_node; }
};

// Per-rank, per-iteration work description.
struct RankWork {
  SimTime compute;                     // pure compute at full speed
  std::uint64_t working_set_bytes = 0;  // drives TLB reach effects
  double mem_bound_fraction = 0.5;      // share of compute hit by TLB misses
  std::uint64_t alloc_churn_bytes = 0;  // freed+reallocated this iteration
  std::uint64_t touch_bytes = 0;        // first-touch (page faults)
  int allreduces = 0;
  std::uint64_t allreduce_bytes = 8;
  int halo_neighbors = 0;
  std::uint64_t halo_bytes = 0;
  int barriers = 0;          // inter-node (MPI) barriers
  int thread_barriers = 0;   // intra-rank (OpenMP) barriers per iteration
  // Lognormal sigma of compute imbalance across ranks (load imbalance,
  // not OS noise).
  double imbalance_sigma = 0.0;
  // Tuned codes hugepage-align their hot buffers, raising the effective
  // THP coverage above the environment default; <0 keeps the default.
  double large_page_coverage_hint = -1.0;

  bool operator==(const RankWork&) const = default;
};

// One-time setup before the iteration loop.
struct InitWork {
  SimTime serial_setup;                 // I/O, mesh build, etc.
  std::uint64_t touch_bytes = 0;        // first-touch of the working set
  int rdma_registrations = 0;           // STAG/MR setups per rank
  std::uint64_t rdma_bytes_each = 0;    // size of each registration
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  virtual int iterations() const = 0;
  virtual RankWork rank_work(int iteration, const JobConfig& job,
                             const OsEnvironment& env) const = 0;
  virtual InitWork init_work(const JobConfig& job,
                             const OsEnvironment& env) const {
    (void)job;
    (void)env;
    return InitWork{};
  }
};

}  // namespace hpcos::cluster
