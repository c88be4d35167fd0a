#include "net/rdma.h"

#include "noise/analytic.h"

namespace hpcos::net {

SimTime RdmaRegistrationModel::median_cost(RegistrationPath path,
                                           std::uint64_t bytes) const {
  switch (path) {
    case RegistrationPath::kLinuxNative: {
      const std::uint64_t page = hw::bytes(params_.linux_pin_page);
      const std::uint64_t pages = (bytes + page - 1) / page;
      return params_.ioctl_base +
             params_.pin_per_page * static_cast<std::int64_t>(pages);
    }
    case RegistrationPath::kMcKernelOffloaded:
      return median_cost(RegistrationPath::kLinuxNative, bytes) +
             params_.offload_roundtrip;
    case RegistrationPath::kMcKernelPicoDriver: {
      const std::uint64_t page = hw::bytes(params_.lwk_pin_page);
      const std::uint64_t pages = (bytes + page - 1) / page;
      return params_.pico_base +
             params_.pico_per_page * static_cast<std::int64_t>(pages);
    }
  }
  return SimTime::zero();
}

double RdmaRegistrationModel::sigma_for(RegistrationPath path) const {
  return path == RegistrationPath::kMcKernelPicoDriver
             ? params_.lwk_tail_sigma
             : params_.linux_tail_sigma;
}

SimTime RdmaRegistrationModel::sample_worst_of(RegistrationPath path,
                                               std::uint64_t bytes,
                                               std::uint64_t k,
                                               RngStream& rng) const {
  if (k == 0) return SimTime::zero();
  const SimTime med = median_cost(path, bytes);
  noise::DurationDist d{.median = med,
                        .sigma = sigma_for(path),
                        .min = SimTime::zero(),
                        .max = med.scaled(params_.tail_max_factor)};
  return d.sample_max(k, rng);
}

}  // namespace hpcos::net
