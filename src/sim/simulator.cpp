#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
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

// Bucket of a record at `time` for the given base: 0 when they are equal,
// else one more than the highest bit in which they differ.
std::size_t bucket_of(std::int64_t time, std::int64_t base) {
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(time ^ base)));
}

}  // namespace

EventId Simulator::schedule_at(SimTime t, EventFn fn, const char* tag) {
  static_assert(sizeof(Slot) == 64, "one slot per cache line");
  static_assert(sizeof(Record) == 24);
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
  queue_push(t.count_ns(), seq, slot);
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

void Simulator::queue_push(std::int64_t time, std::uint64_t seq,
                           std::uint32_t slot) {
  std::uint32_t r = free_records_;
  if (r != kNil) {
    free_records_ = records_[r].next;
  } else {
    r = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  Record& rec = records_[r];
  rec.time = time;
  rec.seq = seq;
  rec.slot = slot;
  if (time < base_) lower_base(time);
  if (time != base_) {
    link(bucket_of(time, base_), r);
    return;
  }
  // At the base: behind bucket 0's records, whose seqs are all smaller.
  rec.next = kNil;
  if (buckets_[0].head == kNil) {
    buckets_[0].head = r;
  } else {
    records_[tail0_].next = r;
  }
  tail0_ = r;
}

void Simulator::link(std::size_t bucket, std::uint32_t r) {
  Record& rec = records_[r];
  Bucket& b = buckets_[bucket];
  rec.next = b.head;
  b.head = r;
  b.min_time = std::min(b.min_time, rec.time);
  occupied_ |= std::uint64_t{1} << (bucket - 1);
}

bool Simulator::refill() {
  if (occupied_ == 0) return false;
  const auto lowest =
      static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
  occupied_ &= occupied_ - 1;
  Bucket& src = buckets_[lowest];
  std::uint32_t r = src.head;
  base_ = src.min_time;
  src.head = kNil;
  src.min_time = kNoTime;
  // Every record of the bucket differs from the new base below the bit
  // that put it there, so each lands in a lower bucket.
  while (r != kNil) {
    const Record& rec = records_[r];
    const std::uint32_t next = rec.next;
    if (rec.time == base_) {
      at_base_.push_back(r);
    } else {
      link(bucket_of(rec.time, base_), r);
    }
    r = next;
  }
  // Bucket 0 in seq order: records scheduled for the same nanosecond fire
  // in scheduling order.
  if (at_base_.size() > 1) {
    std::sort(at_base_.begin(), at_base_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return records_[a].seq < records_[b].seq;
              });
  }
  buckets_[0].head = at_base_.front();
  for (std::size_t i = 1; i < at_base_.size(); ++i) {
    records_[at_base_[i - 1]].next = at_base_[i];
  }
  tail0_ = at_base_.back();
  records_[tail0_].next = kNil;
  at_base_.clear();
  return true;
}

void Simulator::lower_base(std::int64_t time) {
  // With k the highest bit in which the old base and `time` differ, the
  // records of buckets 0..k agree with the old base from bit k up, so
  // they all land in bucket k + 1 for the new base. That bucket is empty:
  // its records would have bit k clear where the old base has it set,
  // making them earlier than the base. Buckets above k + 1 keep theirs.
  const std::size_t target = bucket_of(time, base_);
  HPCOS_CHECK(buckets_[target].head == kNil);
  for (std::size_t b = 0; b < target; ++b) {
    std::uint32_t r = buckets_[b].head;
    buckets_[b].head = kNil;
    buckets_[b].min_time = kNoTime;
    while (r != kNil) {
      const std::uint32_t next = records_[r].next;
      link(target, r);
      r = next;
    }
  }
  occupied_ &= ~((std::uint64_t{1} << (target - 1)) - 1);
  base_ = time;
}

const Simulator::Record* Simulator::front() {
  if (buckets_[0].head == kNil && !refill()) return nullptr;
  return &records_[buckets_[0].head];
}

void Simulator::drop_front() {
  const std::uint32_t r = buckets_[0].head;
  buckets_[0].head = records_[r].next;
  records_[r].next = free_records_;
  free_records_ = r;
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
  while (const Record* next = front()) {
    const Record top = *next;
    drop_front();
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
  // Peek at the earliest event without committing to it. A ghost at the
  // front is discarded even when it lies beyond t_end.
  while (const Record* next = front()) {
    if (is_ghost(*next)) {
      drop_front();
      ++telemetry_.skipped;
      continue;
    }
    if (next->time > t_end.count_ns()) break;
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
