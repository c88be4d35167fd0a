#include "common/sim_time.h"

#include <cmath>
#include <cstdio>

namespace hpcos {

std::string SimTime::to_string() const {
  const double abs_ns = std::abs(static_cast<double>(ns_));
  char buf[64];
  if (abs_ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns_));
  } else if (abs_ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3gus", static_cast<double>(ns_) / 1e3);
  } else if (abs_ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.4gms", static_cast<double>(ns_) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4gs", static_cast<double>(ns_) / 1e9);
  }
  return buf;
}

}  // namespace hpcos
