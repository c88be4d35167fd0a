#include "obs/prof/counters.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

namespace hpcos::obs::prof {
namespace {

// Immortal (leaked) table: scheduler workers may bump counters during
// static destruction of the main thread's objects.
struct Table {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<HostCounter>, std::less<>> counters;
};

Table& table() {
  static Table* t = new Table;
  return *t;
}

}  // namespace

HostCounter* host_counter(const std::string& name) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  std::unique_ptr<HostCounter>& slot = t.counters[name];
  if (!slot) slot = std::make_unique<HostCounter>();
  return slot.get();
}

std::uint64_t CounterSnapshot::value(std::string_view name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const CounterValue& c, std::string_view n) { return c.name < n; });
  return it != counters.end() && it->name == name ? it->value : 0;
}

CounterSnapshot host_counter_snapshot() {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  CounterSnapshot snap;
  snap.counters.reserve(t.counters.size());
  for (const auto& [name, c] : t.counters) {
    snap.counters.push_back(CounterValue{name, c->value()});
  }
  return snap;
}

void reset_host_counters(std::string_view prefix) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  for (auto it = t.counters.lower_bound(prefix);
       it != t.counters.end() && it->first.starts_with(prefix); ++it) {
    it->second->set(0);
  }
}

}  // namespace hpcos::obs::prof
