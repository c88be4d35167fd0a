// Collective operation cost model (MPI-style).
//
// Logarithmic algorithms over the fabric's point-to-point cost: barrier and
// allreduce are what the bulk-synchronous workloads issue every iteration,
// and their latency term is what amplifies OS noise at scale (§2).
#pragma once

#include "net/fabric.h"

namespace hpcos::net {

class Collectives {
 public:
  explicit Collectives(Fabric fabric) : fabric_(std::move(fabric)) {}

  const Fabric& fabric() const { return fabric_; }

  // Dissemination barrier: ceil(log2 P) rounds of zero-byte messages.
  // TofuD's hardware-assisted barrier gates cut the per-round software
  // overhead roughly in half.
  SimTime barrier(std::int64_t ranks) const;

  // Rabenseifner-style allreduce: latency term 2*log2(P) rounds plus a
  // bandwidth term ~2*bytes.
  SimTime allreduce(std::int64_t ranks, std::uint64_t bytes) const;

  // The two halves of the Rabenseifner composition, for span tracing:
  // reduce_scatter + allgather == allreduce(ranks, bytes) exactly (the
  // allgather half absorbs any integer-ns rounding).
  struct AllreducePhases {
    SimTime reduce_scatter;
    SimTime allgather;
  };
  AllreducePhases allreduce_phases(std::int64_t ranks,
                                   std::uint64_t bytes) const;

 private:
  SimTime round_cost(std::uint64_t bytes) const;
  static int log2_ceil(std::int64_t v);

  Fabric fabric_;
};

}  // namespace hpcos::net
