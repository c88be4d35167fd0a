#include "obs/timeseries/openmetrics.h"

#include <sstream>

#include "common/sim_time.h"

namespace hpcos::obs::ts {

namespace {

// Label-value escaping per the exposition format: backslash, quote,
// newline.
std::string escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void emit_sample(std::ostringstream& os, const std::string& metric,
                 std::initializer_list<std::pair<const char*, std::string>>
                     labels,
                 const std::string& value) {
  os << metric << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"" << escape_label(v) << '"';
  }
  os << "} " << value << '\n';
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string openmetrics_text(const Registry& registry,
                             const SeriesSet* series) {
  const Snapshot snap = registry.snapshot();
  std::ostringstream os;
  if (!snap.counters.empty()) {
    os << "# TYPE hpcos_counter counter\n";
    for (const auto& c : snap.counters) {
      emit_sample(os, "hpcos_counter_total", {{"name", c.name}},
                  std::to_string(c.value));
    }
  }
  if (!snap.histograms.empty()) {
    os << "# TYPE hpcos_histogram summary\n";
    for (const auto& h : snap.histograms) {
      emit_sample(os, "hpcos_histogram_count", {{"name", h.name}},
                  std::to_string(h.count));
      emit_sample(os, "hpcos_histogram",
                  {{"name", h.name}, {"quantile", std::string("0.5")}},
                  fmt_double(h.p50));
      emit_sample(os, "hpcos_histogram",
                  {{"name", h.name}, {"quantile", std::string("0.99")}},
                  fmt_double(h.p99));
      emit_sample(os, "hpcos_histogram_max", {{"name", h.name}},
                  fmt_double(h.max));
    }
  }
  if (series != nullptr && series->size() > 0) {
    os << "# TYPE hpcos_series gauge\n";
    for (const auto& [name, s] : series->sorted()) {
      emit_sample(os, "hpcos_series",
                  {{"name", name}, {"stat", std::string("sum")}},
                  fmt_double(s->total_sum()));
      emit_sample(os, "hpcos_series",
                  {{"name", name}, {"stat", std::string("count")}},
                  std::to_string(s->total_count()));
      emit_sample(
          os, "hpcos_series",
          {{"name", name}, {"stat", std::string("resolution_us")}},
          fmt_double(static_cast<double>(s->resolution().count_ns()) / 1e3));
    }
  }
  os << "# EOF\n";
  return os.str();
}

void add_registry_metrics(BenchReport& report, const Registry& registry,
                          const std::string& prefix) {
  const Snapshot snap = registry.snapshot();
  for (const auto& c : snap.counters) {
    report.add_metric(prefix + "." + c.name, "count",
                      static_cast<double>(c.value));
  }
}

}  // namespace hpcos::obs::ts
