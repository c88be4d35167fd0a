// Folded-stack export (flamegraph / speedscope "collapsed" format).
//
// The companion to chrome_trace.h for aggregate views: every span tree in
// a TraceRecord set collapses into lines of
//
//   root;child;grandchild <self-time-ns>
//
// — the input format of flamegraph.pl, speedscope, and inferno. Frame
// values are *self* times (span_tree.h), so the flame graph's widths sum
// correctly at every depth and nested spans never double count. Identical
// paths aggregate; lines are sorted lexicographically so the output is
// deterministic and diffable.
#pragma once

#include <string>
#include <vector>

#include "sim/span_tree.h"
#include "sim/trace.h"

namespace hpcos::sim {

// Collapse all span trees into folded-stack text. Frames are labeled with
// the record's label (falling back to the category name when empty);
// semicolons inside labels are replaced with ':' to keep the format
// unambiguous. Frames with zero self time are omitted (their time lives
// entirely in their children). Returns "" for a record set with no spans.
std::string folded_stack(const std::vector<TraceRecord>& records);
std::string folded_stack(const SpanForest& forest);

// Write folded-stack text to `path`; throws std::runtime_error on I/O
// failure. The file loads directly in speedscope / flamegraph.pl.
void export_folded_stack(const std::vector<TraceRecord>& records,
                         const std::string& path);

// Structural validation of folded text: every non-empty line is
// "<stack> <positive integer>", the stack is non-empty with non-empty
// ';'-separated frames, no duplicate stacks, lines sorted. Returns ""
// when valid, else a description of the first violation.
std::string validate_folded_stack(const std::string& text);

}  // namespace hpcos::sim
