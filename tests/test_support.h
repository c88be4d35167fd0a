// Test support: readers that check a writer, and references that tests
// compare the library against. No production binary needs any of these,
// so they live beside the tests instead of in the libraries.
//
// Every test file includes this header, so gtest failure messages print
// SimTime values as times (operator<< below) in every translation unit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/sim_time.h"

namespace hpcos {

// "6.5ms", "12.3us", ... (SimTime::to_string).
std::ostream& operator<<(std::ostream& os, SimTime t);

// Reference percentile of an ordered sample set: p in [0, 100], linear
// interpolation between closest ranks. The LogHistogram quantile tests
// compare against it.
double percentile_sorted(std::span<const double> sorted, double p);

}  // namespace hpcos

namespace hpcos::sim {

// Parse folded-stack text (sim/folded_stack.h) back into (stack, value)
// pairs in file order; throws std::runtime_error on text that fails
// validate_folded_stack. With folded_stack() this is the round trip the
// tests lock down.
std::vector<std::pair<std::string, std::int64_t>> parse_folded_stack(
    const std::string& text);

}  // namespace hpcos::sim

namespace hpcos::obs {

// Canonical serialization of a run record (obs/runlog.h) with the "host"
// member removed: the deterministic half of the record, byte-equal across
// host thread counts for a fixed config.
std::string deterministic_line(const JsonValue& record);
// FNV-1a 64 hex digest of deterministic_line().
std::string deterministic_digest_hex(const JsonValue& record);

}  // namespace hpcos::obs

namespace hpcos::obs::ts {

// One parsed OpenMetrics sample line: `metric{k="v",...} value`.
struct OpenMetricsSample {
  std::string metric;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  // Label value by key; empty string when absent.
  std::string label(const std::string& key) const;
};

// Strict parser for the exposition subset openmetrics_text() writes
// (obs/timeseries/openmetrics.h). Throws std::runtime_error (with the
// offending line) on malformed input or a missing `# EOF` terminator.
std::vector<OpenMetricsSample> parse_openmetrics(const std::string& text);

}  // namespace hpcos::obs::ts
