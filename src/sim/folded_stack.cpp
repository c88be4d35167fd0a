#include "sim/folded_stack.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

namespace hpcos::sim {

namespace {

std::string frame_label(const TraceRecord& r) {
  std::string label = r.label.empty() ? to_string(r.category) : r.label;
  std::replace(label.begin(), label.end(), ';', ':');
  return label;
}

void collapse(const SpanForest& forest, std::size_t index,
              const std::string& prefix,
              std::map<std::string, std::int64_t>& totals) {
  const TraceRecord& r = forest.records()[index];
  const std::string path =
      prefix.empty() ? frame_label(r) : prefix + ";" + frame_label(r);
  const std::int64_t self_ns = forest.self_time(index).count_ns();
  if (self_ns > 0) totals[path] += self_ns;
  for (const std::size_t c : forest.children(index)) {
    collapse(forest, c, path, totals);
  }
}

}  // namespace

std::string folded_stack(const SpanForest& forest) {
  std::map<std::string, std::int64_t> totals;  // sorted == deterministic
  for (const std::size_t root : forest.roots()) {
    collapse(forest, root, "", totals);
  }
  std::string out;
  for (const auto& [path, value] : totals) {
    out += path;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

std::string folded_stack(const std::vector<TraceRecord>& records) {
  return folded_stack(SpanForest(records));
}

void export_folded_stack(const std::vector<TraceRecord>& records,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open folded-stack path: " + path);
  out << folded_stack(records);
  if (!out) throw std::runtime_error("write failed for folded stack: " + path);
}

std::string validate_folded_stack(const std::string& text) {
  std::string prev_stack;
  bool first = true;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos
                                                  : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);

    const std::size_t sep = line.rfind(' ');
    if (sep == std::string::npos || sep == 0 || sep + 1 == line.size()) {
      return where + ": expected \"<stack> <value>\"";
    }
    const std::string stack = line.substr(0, sep);
    const std::string value = line.substr(sep + 1);
    for (const char c : value) {
      if (c < '0' || c > '9') {
        return where + ": value is not a positive integer: \"" + value + "\"";
      }
    }
    if (value == "0") return where + ": zero-valued frame";
    // Non-empty ';'-separated frames.
    std::size_t frame_start = 0;
    while (true) {
      const std::size_t semi = stack.find(';', frame_start);
      const std::size_t frame_end =
          semi == std::string::npos ? stack.size() : semi;
      if (frame_end == frame_start) return where + ": empty frame in stack";
      if (semi == std::string::npos) break;
      frame_start = semi + 1;
    }
    if (!first) {
      if (stack == prev_stack) return where + ": duplicate stack";
      if (stack < prev_stack) return where + ": stacks are not sorted";
    }
    prev_stack = stack;
    first = false;
  }
  return {};
}

}  // namespace hpcos::sim
