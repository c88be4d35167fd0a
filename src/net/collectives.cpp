#include "net/collectives.h"

#include <bit>

#include "common/check.h"

namespace hpcos::net {

int Collectives::log2_ceil(std::int64_t v) {
  HPCOS_CHECK(v >= 1);
  if (v == 1) return 0;
  return static_cast<int>(
      std::bit_width(static_cast<std::uint64_t>(v - 1)));
}

SimTime Collectives::round_cost(std::uint64_t bytes) const {
  const auto& p = fabric_.params();
  const double bw_sec = static_cast<double>(bytes) /
                        static_cast<double>(p.bandwidth_bytes_per_sec);
  return p.sw_overhead + p.link_latency * 2 + SimTime::from_sec(bw_sec);
}

SimTime Collectives::barrier(std::int64_t ranks) const {
  if (ranks <= 1) return SimTime::zero();
  SimTime per_round = round_cost(0);
  if (fabric_.params().kind == hw::InterconnectKind::kTofuD) {
    per_round = per_round.scaled(0.5);  // Tofu barrier gates
  }
  return per_round * log2_ceil(ranks);
}

SimTime Collectives::allreduce(std::int64_t ranks,
                               std::uint64_t bytes) const {
  if (ranks <= 1) return SimTime::zero();
  const int rounds = log2_ceil(ranks);
  // Latency term: 2 log2(P) rounds (reduce-scatter + allgather); bandwidth
  // term: ~2x the payload crosses the wire.
  return round_cost(0) * (2 * rounds) + round_cost(2 * bytes) -
         round_cost(0);
}

Collectives::AllreducePhases Collectives::allreduce_phases(
    std::int64_t ranks, std::uint64_t bytes) const {
  AllreducePhases p;
  if (ranks <= 1) return p;
  const int rounds = log2_ceil(ranks);
  const SimTime bw_term = round_cost(2 * bytes) - round_cost(0);
  p.reduce_scatter = round_cost(0) * rounds + bw_term.scaled(0.5);
  p.allgather = allreduce(ranks, bytes) - p.reduce_scatter;
  return p;
}

}  // namespace hpcos::net
