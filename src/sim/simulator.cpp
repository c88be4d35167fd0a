#include "sim/simulator.h"

#include <cstring>
#include <utility>

#include "obs/prof/counters.h"

namespace hpcos::sim {

namespace {

constexpr const char* kDefaultTag = "event";

// The DES loop's share of the live feed, looked up once per process.
struct LiveFeed {
  using Counter = obs::prof::HostCounter;
  Counter* events = obs::prof::host_counter(obs::prof::kLiveEvents);
  Counter* sim_time_ns = obs::prof::host_counter(obs::prof::kLiveSimTimeNs);
  Counter* des_depth = obs::prof::host_counter(obs::prof::kLiveDesDepth);
  Counter* des_max_depth =
      obs::prof::host_counter(obs::prof::kLiveDesMaxDepth);
};

const LiveFeed& live_feed() {
  static const LiveFeed feed;
  return feed;
}

std::uint64_t sim_ns(SimTime t) {
  return static_cast<std::uint64_t>(t.count_ns());  // never negative
}

}  // namespace

EventId Simulator::schedule_at(SimTime t, EventFn fn, const char* tag) {
  HPCOS_CHECK_MSG(t >= now_, "event scheduled in the past");
  HPCOS_CHECK(fn != nullptr);
  const std::uint64_t seq = next_seq_++;
  heap_.push(HeapEntry{t, seq});
  pending_.emplace(seq, Pending{std::move(fn), tag});
  ++telemetry_.pushes;
  if (pending_.size() > telemetry_.max_depth) {
    telemetry_.max_depth = pending_.size();
  }
  if (depth_probe_) depth_probe_(now_, pending_.size());
  return EventId{seq};
}

EventId Simulator::schedule_after(SimTime dt, EventFn fn, const char* tag) {
  HPCOS_CHECK_MSG(!dt.is_negative(), "negative delay");
  return schedule_at(now_ + dt, std::move(fn), tag);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  if (pending_.erase(id.seq) == 0) return false;
  ++telemetry_.cancels;
  return true;
}

obs::prof::ScopeId Simulator::fire_scope(const char* tag) {
  for (const TagScope& e : tags_) {
    if (e.tag == tag) return e.scope;
  }
  // Same literal from another translation unit: match by content so the
  // attribution stays one scope per tag.
  for (const TagScope& e : tags_) {
    if (std::strcmp(e.tag, tag) == 0) return e.scope;
  }
  tags_.push_back(
      TagScope{tag, obs::prof::intern(std::string("des.fire.") + tag)});
  return tags_.back().scope;
}

// Decompose the hot loop by handler kind: one profiler scope per tag, so
// the fire shows up in the hotspot table / flamegraph. Out of line, so the
// profiler-off path of step() carries none of it.
[[gnu::noinline]] void Simulator::fire_profiled(Pending& ev) {
  const obs::prof::ScopedTimer timer(
      fire_scope(ev.tag != nullptr ? ev.tag : kDefaultTag));
  ev.fn();
}

bool Simulator::pop_next(HeapEntry& out, Pending& ev) {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    heap_.pop();
    auto it = pending_.find(top.seq);
    if (it == pending_.end()) {
      ++telemetry_.skipped;  // cancelled; its ghost entry dies here
      continue;
    }
    out = top;
    ev = std::move(it->second);
    pending_.erase(it);
    return true;
  }
  return false;
}

bool Simulator::step() {
  HeapEntry e;
  Pending ev;
  if (!pop_next(e, ev)) return false;
  now_ = e.time;
  ++executed_;
  ++telemetry_.pops;
  if (obs::prof::live_feed_enabled()) {
    // Live progress feed (heartbeats/stall watchdog): count every fire,
    // but sample the gauges coarsely — one publish per 512 events keeps
    // the hot loop at one relaxed add when the meter is running.
    const LiveFeed& feed = live_feed();
    feed.events->add(1);
    if ((executed_ & 0x1FF) == 0) {
      feed.sim_time_ns->note_max(sim_ns(now_));
      feed.des_depth->set(pending_.size());
      feed.des_max_depth->note_max(pending_.size());
    }
  }
  if (obs::prof::enabled()) {
    fire_profiled(ev);
  } else {
    ev.fn();
  }
  if (depth_probe_) depth_probe_(now_, pending_.size());
  return true;
}

std::size_t Simulator::run_until(SimTime t_end) {
  HPCOS_CHECK(t_end >= now_);
  std::size_t n = 0;
  while (!heap_.empty()) {
    // Peek at the earliest live event without committing to it.
    HeapEntry top = heap_.top();
    if (pending_.find(top.seq) == pending_.end()) {
      heap_.pop();
      ++telemetry_.skipped;
      continue;
    }
    if (top.time > t_end) break;
    step();
    ++n;
  }
  now_ = t_end;
  if (obs::prof::live_feed_enabled()) {
    live_feed().sim_time_ns->note_max(sim_ns(now_));
  }
  return n;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace hpcos::sim
