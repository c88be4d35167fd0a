// Discrete-event simulation core.
//
// The whole node model runs on this engine: kernel ticks, IRQs, daemon
// wakeups, compute-burst completions and IKC message deliveries are all
// events. Determinism is guaranteed by a strict (time, sequence) total
// order: two events at the same instant fire in scheduling order, so a run
// is a pure function of (configuration, seed) regardless of host threading.
//
// Event queue layout:
//   * The heap is one array-backed 4-ary min-heap of 24-byte
//     (time, seq, slot) records, ordered by (time, seq). seq is the
//     scheduling sequence number, unique per simulator, starting at 1.
//   * Each pending event owns one 64-byte, cache-line-aligned slot in a
//     slot table: its callable, its tag and its seq (0 while the slot is
//     free). Free slots are reused last-in first-out, so scheduling and
//     firing an event does no hashing.
//   * EventFn keeps a callable inline in a 32-byte buffer when it is
//     nothrow-movable and at most 32 bytes: `this` plus a few ids or
//     references, or a std::function. A larger callable spills to one
//     heap allocation; no schedule site in the tree passes one.
//   * An EventId is (seq, slot). cancel() succeeds only while the slot
//     still carries the id's seq, so an id whose event fired or was
//     cancelled, and whose slot another event has since taken, cancels
//     nothing. Cancelling destroys the callable at once; its heap record
//     stays behind as a ghost that step() and run_until() discard when it
//     reaches the top (counted in QueueTelemetry::skipped).
//
// Self-observability:
//   * queue_telemetry() — always-on push/pop/cancel/max-depth counters
//     (plain single-writer increments; cost is in the noise).
//   * set_depth_probe() — optional queue-depth hook invoked after every
//     push and every executed event; tools feed it into an
//     obs::ts::TimeSeries to get the depth-over-virtual-time series. One
//     branch when unset.
//   * Event tags + handler attribution — schedule sites may pass a static
//     string tag ("linux.tick", "ikc.deliver"); while the host profiler
//     is enabled, step() times the queue pop (ghosts included) under a
//     "des.queue.pop" profiler scope and each handler under a
//     "des.fire.<tag>" scope, decomposing the DES hot loop's cost into the
//     queue and each handler kind (the profile's scope counts and times
//     are the attribution). Zero timing overhead while the profiler is
//     disabled (one branch per event).
//   * Live feed — while a ProgressMeter runs (obs/live/live.h), step()
//     bumps the host-counter table's live.events and, every 512 events,
//     live.sim_time_ns / live.des.depth / live.des.max_depth
//     (obs/prof/counters.h). One branch per event while no meter runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "obs/prof/prof.h"

namespace hpcos::sim {

// Move-only `void()` callable. Callables that fit kInlineBytes and move
// without throwing live in the object itself; others live on the heap
// behind a pointer kept in the same buffer. An empty std::function or a
// null function pointer converts to an empty EventFn.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  EventFn() = default;

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>)
  EventFn(F&& f) {  // NOLINT: implicit, so call sites pass lambdas
    if constexpr (std::is_pointer_v<D> || IsStdFunction<D>::value) {
      if (f == nullptr) return;
    }
    if constexpr (kFitsInline<D>) {
      emplace<D>(std::forward<F>(f));
    } else {
      emplace<Boxed<D>>(std::make_unique<D>(std::forward<F>(f)));
    }
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { invoke_(buf_); }
  friend bool operator==(const EventFn& f, std::nullptr_t) {
    return f.invoke_ == nullptr;
  }

 private:
  enum class Op { kRelocate, kDestroy };
  using Invoke = void (*)(void*);
  // kRelocate move-constructs *src into dst and destroys *src;
  // kDestroy destroys *dst.
  using Manage = void (*)(Op, void* dst, void* src);

  template <class T>
  struct IsStdFunction : std::false_type {};
  template <class R, class... A>
  struct IsStdFunction<std::function<R(A...)>> : std::true_type {};

  template <class D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  // A callable too large for the buffer: the buffer holds its owner.
  template <class D>
  struct Boxed {
    std::unique_ptr<D> fn;
    void operator()() { (*fn)(); }
  };

  template <class T, class... Args>
  void emplace(Args&&... args) {
    ::new (static_cast<void*>(buf_)) T(std::forward<Args>(args)...);
    invoke_ = &invoke<T>;
    // Trivially copyable captures (`this`, ids, references) relocate by
    // memcpy and need no destructor call.
    if constexpr (!(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>)) {
      manage_ = &manage<T>;
    }
  }
  template <class T>
  static void invoke(void* p) {
    (*std::launder(static_cast<T*>(p)))();
  }
  template <class T>
  static void manage(Op op, void* dst, void* src) {
    if (op == Op::kRelocate) {
      T* from = std::launder(static_cast<T*>(src));
      ::new (dst) T(std::move(*from));
      from->~T();
    } else {
      std::launder(static_cast<T*>(dst))->~T();
    }
  }

  // Destroys the held callable, leaving this empty.
  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }
  // Moves other's callable into this (which must be empty).
  void take(EventFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      other.manage_(Op::kRelocate, buf_, other.buf_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  // nullptr: trivially relocatable, no destructor
};

// Handle for cancellation. Default-constructed ids are invalid.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  bool valid() const { return seq != 0; }
};

// Always-on event-queue counters (single-writer, no synchronization).
struct QueueTelemetry {
  std::uint64_t pushes = 0;      // schedule_at/schedule_after calls
  std::uint64_t pops = 0;        // live events popped and fired
  std::uint64_t cancels = 0;     // successful cancel() calls
  std::uint64_t skipped = 0;     // cancelled heap entries discarded on pop
  std::size_t max_depth = 0;     // peak pending-event count
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule fn at absolute time t (must be >= now()). `tag` labels the
  // handler for host-time attribution; it must point at storage that
  // outlives the simulator (string literals at call sites).
  EventId schedule_at(SimTime t, EventFn fn, const char* tag = nullptr);
  // Schedule fn `dt` after now (dt >= 0).
  EventId schedule_after(SimTime dt, EventFn fn, const char* tag = nullptr);

  // Cancel a pending event. Returns true when the event had not yet fired
  // (and had not been cancelled before).
  bool cancel(EventId id);

  // Execute the next pending event, if any. Returns false when the queue
  // is empty.
  bool step();

  // Run events with timestamp <= t_end, then advance the clock to t_end.
  // Returns the number of events executed.
  std::size_t run_until(SimTime t_end);

  bool has_pending() const { return live_ != 0; }
  std::size_t pending_count() const { return live_; }
  std::uint64_t events_executed() const { return executed_; }

  const QueueTelemetry& queue_telemetry() const { return telemetry_; }

  // Queue-depth hook: probe(now, pending_count) after each push and each
  // executed event. Pass nullptr to detach.
  using DepthProbe = std::function<void(SimTime, std::size_t)>;
  void set_depth_probe(DepthProbe probe) { depth_probe_ = std::move(probe); }

 private:
  struct HeapRecord {
    std::int64_t time = 0;  // SimTime::count_ns()
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  struct alignas(64) Slot {
    EventFn fn;
    const char* tag = nullptr;
    std::uint64_t seq = 0;  // 0: free
  };

  // The live event step() pops: its callable leaves the slot before it
  // runs, because a handler that schedules can grow the slot table.
  struct Popped {
    std::int64_t time = 0;
    EventFn fn;
    const char* tag = nullptr;
  };

  // Tag -> "des.fire.<tag>" profiler scope; tags are looked up by pointer
  // identity first (string literals), falling back to a content match so
  // equal literals from different translation units share one scope.
  struct TagScope {
    const char* tag = nullptr;
    obs::prof::ScopeId scope = 0;
  };
  obs::prof::ScopeId fire_scope(const char* tag);
  bool pop_profiled(Popped& ev);
  void fire_profiled(Popped& ev);

  // Pops the next live event into `ev`, discarding ghosts on the way.
  bool pop_next(Popped& ev);
  bool is_ghost(const HeapRecord& r) const {
    return slots_[r.slot].seq != r.seq;
  }
  void heap_push(HeapRecord r);
  void heap_pop();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<HeapRecord> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO
  QueueTelemetry telemetry_;
  DepthProbe depth_probe_;
  std::vector<TagScope> tags_;
};

}  // namespace hpcos::sim
