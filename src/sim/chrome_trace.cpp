#include "sim/chrome_trace.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hpcos::sim {

namespace {

JsonValue event_to_json(const TraceRecord& rec, const ChromeTraceOptions& opt) {
  JsonValue ev = JsonValue::object();
  ev.set("name", rec.label.empty() ? to_string(rec.category) : rec.label);
  ev.set("cat", to_string(rec.category));
  const bool complete = rec.duration > SimTime::zero();
  ev.set("ph", complete ? "X" : "i");
  ev.set("ts", rec.time.to_us());
  if (complete) ev.set("dur", rec.duration.to_us());
  if (!complete) ev.set("s", "t");  // instant event scope: thread
  ev.set("pid", opt.pid);
  ev.set("tid", static_cast<std::int64_t>(rec.core));
  JsonValue args = JsonValue::object();
  if (rec.span != 0) args.set("span", rec.span);
  if (rec.parent != 0) args.set("parent", rec.parent);
  ev.set("args", std::move(args));
  return ev;
}

JsonValue metadata_event(const char* kind, std::uint64_t pid,
                         std::int64_t tid, const std::string& name) {
  JsonValue meta = JsonValue::object();
  meta.set("name", kind);
  meta.set("ph", "M");
  meta.set("pid", pid);
  meta.set("tid", tid);
  JsonValue args = JsonValue::object();
  args.set("name", name);
  meta.set("args", std::move(args));
  return meta;
}

void append_metadata(JsonValue& events, const ChromeTraceOptions& options) {
  if (!options.process_name.empty()) {
    events.push_back(
        metadata_event("process_name", options.pid, 0, options.process_name));
  }
  for (const auto& [tid, name] : options.thread_names) {
    events.push_back(metadata_event("thread_name", options.pid, tid, name));
  }
}

void append_sorted_events(JsonValue& events,
                          std::vector<std::pair<const TraceRecord*,
                                                const ChromeTraceOptions*>>
                              ordered) {
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first->time != b.first->time) {
                       return a.first->time < b.first->time;
                     }
                     return a.first->span < b.first->span;
                   });
  for (const auto& [rec, opt] : ordered) {
    events.push_back(event_to_json(*rec, *opt));
  }
}

}  // namespace

JsonValue chrome_trace_document(const std::vector<ChromeTraceGroup>& groups) {
  JsonValue events = JsonValue::array();
  // Groups with no records contribute no metadata either: a process/thread
  // name with zero events would show up as an empty track in the viewer,
  // and an all-empty export must still be a valid (empty) document.
  for (const auto& group : groups) {
    if (!group.records.empty()) append_metadata(events, group.options);
  }
  std::vector<std::pair<const TraceRecord*, const ChromeTraceOptions*>>
      ordered;
  for (const auto& group : groups) {
    for (const auto& rec : group.records) {
      ordered.emplace_back(&rec, &group.options);
    }
  }
  append_sorted_events(events, std::move(ordered));

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

std::string validate_chrome_trace(const JsonValue& doc) {
  if (!doc.is_object()) return "document is not a JSON object";
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return "missing \"traceEvents\"";
  if (!events->is_array()) return "\"traceEvents\" is not an array";
  double last_ts = -std::numeric_limits<double>::infinity();
  const auto& arr = events->as_array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const auto& ev = arr[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!ev.is_object()) return where + " is not an object";
    for (const char* key : {"name", "ph", "pid"}) {
      if (!ev.contains(key)) return where + " missing \"" + key + "\"";
    }
    if (!ev.at("ph").is_string()) return where + " ph is not a string";
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") continue;  // metadata events carry no timestamp
    for (const char* key : {"ts", "tid", "cat"}) {
      if (!ev.contains(key)) return where + " missing \"" + key + "\"";
    }
    if (!ev.at("ts").is_number() || !std::isfinite(ev.at("ts").as_number())) {
      return where + " ts is not a finite number";
    }
    const double ts = ev.at("ts").as_number();
    if (ts < last_ts) return where + " ts is not monotonic";
    last_ts = ts;
    if (ph == "X") {
      if (!ev.contains("dur") || !ev.at("dur").is_number() ||
          !std::isfinite(ev.at("dur").as_number()) ||
          ev.at("dur").as_number() < 0) {
        return where + " complete event lacks a finite non-negative dur";
      }
    }
  }
  return {};
}

}  // namespace hpcos::sim
