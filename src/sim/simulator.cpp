#include "sim/simulator.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "obs/prof/counters.h"

namespace hpcos::sim {

namespace {

constexpr const char* kDefaultTag = "event";

// Children per heap node: a 4-ary heap halves the depth of a binary one,
// and the four children of a node sit next to each other in memory.
constexpr std::size_t kArity = 4;

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

// The (time, seq) total order of heap records. Bitwise, not
// short-circuit, operators keep it free of branches: which child of a
// heap node is smallest is a coin flip the branch predictor cannot learn.
template <class Record>
bool before(const Record& a, const Record& b) {
  return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
}

}  // namespace

EventId Simulator::schedule_at(SimTime t, EventFn fn, const char* tag) {
  static_assert(sizeof(Slot) == 64, "one slot per cache line");
  static_assert(sizeof(HeapRecord) == 24);
  HPCOS_CHECK_MSG(t >= now_, "event scheduled in the past");
  HPCOS_CHECK(fn != nullptr);
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_push(HeapRecord{t.count_ns(), seq, slot});
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.tag = tag;
  s.seq = seq;
  ++live_;
  ++telemetry_.pushes;
  if (live_ > telemetry_.max_depth) telemetry_.max_depth = live_;
  if (depth_probe_) depth_probe_(now_, live_);
  return EventId{seq, slot};
}

EventId Simulator::schedule_after(SimTime dt, EventFn fn, const char* tag) {
  HPCOS_CHECK_MSG(!dt.is_negative(), "negative delay");
  return schedule_at(now_ + dt, std::move(fn), tag);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.seq != id.seq) return false;  // fired, cancelled, or slot reused
  // Free the slot first: the captured state's destructor runs when `dead`
  // leaves scope, outside the slot table.
  const EventFn dead = std::move(s.fn);
  s.seq = 0;
  free_slots_.push_back(id.slot);
  --live_;
  ++telemetry_.cancels;
  return true;
}

void Simulator::heap_push(HeapRecord r) {
  heap_.push_back(r);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(r, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = r;
}

void Simulator::heap_pop() {
  const HeapRecord last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  HeapRecord* h = heap_.data();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    std::size_t best = first;
    if (first + kArity <= n) {
      // Smallest of four children as a two-round tournament, selected
      // with masks rather than jumps.
      const std::size_t a = first + before(h[first + 1], h[first]);
      const std::size_t b = first + 2 + before(h[first + 3], h[first + 2]);
      const std::size_t pick_b = -static_cast<std::size_t>(before(h[b], h[a]));
      best = a ^ ((a ^ b) & pick_b);
    } else if (first < n) {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (before(h[c], h[best])) best = c;
      }
    } else {
      break;
    }
    if (!before(h[best], last)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = last;
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

// Decompose the hot loop into the queue and each handler kind: the pop
// under one profiler scope, the fire under one scope per tag, so both
// show up in the hotspot table / flamegraph. Out of line, so the
// profiler-off path of step() carries none of it.
[[gnu::noinline]] bool Simulator::pop_profiled(Popped& ev) {
  PROF_SCOPE("des.queue.pop");
  return pop_next(ev);
}

[[gnu::noinline]] void Simulator::fire_profiled(Popped& ev) {
  const obs::prof::ScopedTimer timer(
      fire_scope(ev.tag != nullptr ? ev.tag : kDefaultTag));
  ev.fn();
}

bool Simulator::pop_next(Popped& ev) {
  while (!heap_.empty()) {
    const HeapRecord top = heap_.front();
    heap_pop();
    if (is_ghost(top)) {
      ++telemetry_.skipped;  // cancelled; its ghost record dies here
      continue;
    }
    Slot& s = slots_[top.slot];
    ev.time = top.time;
    ev.fn = std::move(s.fn);
    ev.tag = s.tag;
    s.seq = 0;
    free_slots_.push_back(top.slot);
    --live_;
    return true;
  }
  return false;
}

bool Simulator::step() {
  const bool profiled = obs::prof::enabled();
  Popped ev;
  if (!(profiled ? pop_profiled(ev) : pop_next(ev))) return false;
  now_ = SimTime::ns(ev.time);
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
      feed.des_depth->set(live_);
      feed.des_max_depth->note_max(live_);
    }
  }
  if (profiled) {
    fire_profiled(ev);
  } else {
    ev.fn();
  }
  if (depth_probe_) depth_probe_(now_, live_);
  return true;
}

std::size_t Simulator::run_until(SimTime t_end) {
  HPCOS_CHECK(t_end >= now_);
  std::size_t n = 0;
  while (!heap_.empty()) {
    // Peek at the earliest live event without committing to it.
    if (is_ghost(heap_.front())) {
      heap_pop();
      ++telemetry_.skipped;
      continue;
    }
    if (heap_.front().time > t_end.count_ns()) break;
    step();
    ++n;
  }
  now_ = t_end;
  if (obs::prof::live_feed_enabled()) {
    live_feed().sim_time_ns->note_max(sim_ns(now_));
  }
  return n;
}

}  // namespace hpcos::sim
