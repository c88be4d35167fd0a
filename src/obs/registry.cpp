#include "obs/registry.h"

#include <algorithm>

namespace hpcos::obs {

Counter* Registry::counter(const std::string& name) {
  for (auto& c : counters_) {
    if (c.name == name) return c.value.get();
  }
  counters_.push_back({name, std::make_unique<Counter>()});
  return counters_.back().value.get();
}

LogHistogram* Registry::histogram(const std::string& name, double min_value,
                                  double max_value, std::size_t num_bins) {
  for (auto& h : histograms_) {
    if (h.name == name) return h.value.get();
  }
  histograms_.push_back(
      {name, std::make_unique<LogHistogram>(min_value, max_value, num_bins)});
  return histograms_.back().value.get();
}

const Counter* Registry::find_counter(const std::string& name) const {
  for (const auto& c : counters_) {
    if (c.name == name) return c.value.get();
  }
  return nullptr;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& c : counters_) {
    s.counters.push_back({c.name, c.value->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    Snapshot::HistogramEntry e;
    e.name = h.name;
    e.count = h.value->total_count();
    if (e.count > 0) {
      e.p50 = h.value->quantile(0.5);
      e.p99 = h.value->quantile(0.99);
      e.max = h.value->observed_max();
    }
    s.histograms.push_back(std::move(e));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(s.counters.begin(), s.counters.end(), by_name);
  std::sort(s.histograms.begin(), s.histograms.end(), by_name);
  return s;
}

Snapshot Snapshot::delta(const Snapshot& after, const Snapshot& before) {
  Snapshot out;
  for (const auto& c : after.counters) {
    std::uint64_t base = 0;
    for (const auto& b : before.counters) {
      if (b.name == c.name) {
        base = b.value;
        break;
      }
    }
    out.counters.push_back({c.name, c.value - base});
  }
  for (const auto& h : after.histograms) {
    std::uint64_t base = 0;
    for (const auto& b : before.histograms) {
      if (b.name == h.name) {
        base = b.count;
        break;
      }
    }
    HistogramEntry e = h;
    e.count = h.count - base;
    out.histograms.push_back(std::move(e));
  }
  return out;
}

}  // namespace hpcos::obs
