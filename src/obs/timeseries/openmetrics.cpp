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

std::string openmetrics_text(const prof::CounterSnapshot& counters,
                             const SeriesSet* series) {
  std::ostringstream os;
  if (!counters.counters.empty()) {
    os << "# TYPE hpcos_counter counter\n";
    for (const auto& c : counters.counters) {
      emit_sample(os, "hpcos_counter_total", {{"name", c.name}},
                  std::to_string(c.value));
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

void add_registry_metrics(BenchReport& report,
                          const prof::CounterSnapshot& counters,
                          const std::string& prefix) {
  for (const auto& c : counters.counters) {
    report.add_metric(prefix + "." + c.name, "count",
                      static_cast<double>(c.value));
  }
}

}  // namespace hpcos::obs::ts
