#include "test_support.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/confighash.h"
#include "sim/folded_stack.h"

namespace hpcos {

std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.to_string();
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank =
      clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace hpcos

namespace hpcos::sim {

std::vector<std::pair<std::string, std::int64_t>> parse_folded_stack(
    const std::string& text) {
  if (const std::string err = validate_folded_stack(text); !err.empty()) {
    throw std::runtime_error("folded stack invalid: " + err);
  }
  std::vector<std::pair<std::string, std::int64_t>> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos
                                                  : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty()) continue;
    const std::size_t sep = line.rfind(' ');
    out.emplace_back(line.substr(0, sep),
                     std::stoll(line.substr(sep + 1)));
  }
  return out;
}

}  // namespace hpcos::sim

namespace hpcos::obs {

std::string deterministic_line(const JsonValue& record) {
  JsonValue stripped = JsonValue::object();
  for (const JsonMember& m : record.members()) {
    if (m.first == "host") continue;
    stripped.set(m.first, m.second);
  }
  return canonical_json(stripped);
}

std::string deterministic_digest_hex(const JsonValue& record) {
  return to_hex64(fnv1a64(deterministic_line(record)));
}

}  // namespace hpcos::obs

namespace hpcos::obs::ts {

std::string OpenMetricsSample::label(const std::string& key) const {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

namespace {

[[noreturn]] void parse_fail(const std::string& why, const std::string& line) {
  throw std::runtime_error("openmetrics parse error: " + why + " in line: " +
                           line);
}

OpenMetricsSample parse_line(const std::string& line) {
  OpenMetricsSample sample;
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  if (i == 0 || i == line.size()) parse_fail("missing metric name", line);
  sample.metric = line.substr(0, i);
  if (line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const std::size_t key_start = i;
      while (i < line.size() && line[i] != '=') ++i;
      if (i >= line.size()) parse_fail("unterminated label key", line);
      std::string key = line.substr(key_start, i - key_start);
      ++i;  // '='
      if (i >= line.size() || line[i] != '"') {
        parse_fail("label value is not quoted", line);
      }
      ++i;  // opening quote
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          ++i;
          switch (line[i]) {
            case 'n': value += '\n'; break;
            case '\\': value += '\\'; break;
            case '"': value += '"'; break;
            default: parse_fail("bad escape in label value", line);
          }
        } else {
          value += line[i];
        }
        ++i;
      }
      if (i >= line.size()) parse_fail("unterminated label value", line);
      ++i;  // closing quote
      sample.labels.emplace_back(std::move(key), std::move(value));
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      parse_fail("unterminated label set", line);
    }
    ++i;  // '}'
  }
  if (i >= line.size() || line[i] != ' ') {
    parse_fail("missing value separator", line);
  }
  ++i;
  const std::string value_text = line.substr(i);
  char* end = nullptr;
  sample.value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() || *end != '\0') {
    parse_fail("bad sample value", line);
  }
  return sample;
}

}  // namespace

std::vector<OpenMetricsSample> parse_openmetrics(const std::string& text) {
  std::vector<OpenMetricsSample> samples;
  std::istringstream in(text);
  std::string line;
  bool saw_eof = false;
  while (std::getline(in, line)) {
    if (saw_eof) parse_fail("content after # EOF", line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == "# EOF") saw_eof = true;
      continue;  // TYPE/HELP/EOF comment lines
    }
    samples.push_back(parse_line(line));
  }
  if (!saw_eof) {
    throw std::runtime_error(
        "openmetrics parse error: missing # EOF terminator");
  }
  return samples;
}

}  // namespace hpcos::obs::ts
