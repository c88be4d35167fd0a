#include "obs/prof/prof.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hpcos::obs::prof {
namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;
// Span ids carry (buffer index + 1) above this bit and the buffer's own
// sequence below it, so ids are unique across threads and never 0.
constexpr int kSpanIndexShift = 40;

// Single-writer ring with a release-published size. The owner thread
// appends; snapshot() acquire-loads size and reads the prefix, which the
// release store ordered after the event payload write.
struct ThreadBuffer {
  ThreadBuffer(std::size_t capacity, std::uint64_t index)
      : events(std::make_unique_for_overwrite<ScopeEvent[]>(capacity)),
        capacity(capacity),
        last_span(index << kSpanIndexShift) {}

  void record(const ScopeEvent& e) {
    const std::size_t n = size.load(std::memory_order_relaxed);
    if (n >= capacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = e;
    size.store(n + 1, std::memory_order_release);
  }

  std::unique_ptr<ScopeEvent[]> events;
  std::size_t capacity;
  std::uint64_t last_span;  // owner thread only
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
};

// Immortal global state (leaked on purpose: scheduler worker threads may
// record during static destruction of the main thread's objects).
struct State {
  std::mutex mutex;
  std::vector<std::string> names;                     // ScopeId -> name
  std::unordered_map<std::string, ScopeId> ids;       // name -> ScopeId
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // registration order
  std::size_t capacity = kDefaultCapacity;
  std::atomic<bool> enabled{false};
};

State& state() {
  static State* s = new State;
  return *s;
}

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_open_span = 0;  // innermost armed scope

ThreadBuffer& thread_buffer() {
  if (tl_buffer == nullptr) {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.buffers.push_back(
        std::make_unique<ThreadBuffer>(s.capacity, s.buffers.size() + 1));
    tl_buffer = s.buffers.back().get();
  }
  return *tl_buffer;
}

}  // namespace

ScopeId intern(const std::string& name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.ids.find(name);
  if (it != s.ids.end()) return it->second;
  const auto id = static_cast<ScopeId>(s.names.size());
  s.names.push_back(name);
  s.ids.emplace(name, id);
  return id;
}

bool enabled() { return state().enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

void set_thread_buffer_capacity(std::size_t events) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.capacity = std::max<std::size_t>(events, 16);
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& b : s.buffers) {
    b->size.store(0, std::memory_order_relaxed);
    b->dropped.store(0, std::memory_order_relaxed);
  }
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

ScopedTimer::ScopedTimer(ScopeId id) {
  if (!enabled()) return;
  armed_ = true;
  id_ = id;
  span_ = ++thread_buffer().last_span;
  parent_ = std::exchange(tl_open_span, span_);
  start_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (!armed_) return;
  const std::int64_t end = now_ns();
  tl_open_span = parent_;
  tl_buffer->record(ScopeEvent{id_, span_, parent_, start_, end});
}

const ScopeStat* Profile::find(const std::string& name) const {
  for (const auto& s : scopes) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::int64_t Profile::sum_self_ns() const {
  std::int64_t sum = 0;
  for (const auto& s : scopes) sum += s.self_ns;
  return sum;
}

Snapshot snapshot() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  Snapshot snap;
  snap.names = s.names;
  for (const auto& buf : s.buffers) {
    const std::size_t n = buf->size.load(std::memory_order_acquire);
    snap.dropped += buf->dropped.load(std::memory_order_relaxed);
    if (n == 0) continue;
    ++snap.threads;
    snap.events.insert(snap.events.end(), buf->events.get(),
                       buf->events.get() + n);
  }
  return snap;
}

}  // namespace hpcos::obs::prof
