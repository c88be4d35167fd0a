// Discrete-event simulation core.
//
// The whole node model runs on this engine: kernel ticks, IRQs, daemon
// wakeups, compute-burst completions and IKC message deliveries are all
// events. Determinism is guaranteed by a strict (time, sequence) total
// order: two events at the same instant fire in scheduling order, so a run
// is a pure function of (configuration, seed) regardless of host threading.
//
// Event queue layout:
//   * The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
//     Tarjan, J. ACM 37(2), 1990) of 24-byte (time, seq, slot, next)
//     records. seq is the scheduling sequence number, unique per
//     simulator, starting at 1. A DES never schedules before now(), which
//     is what a monotone queue needs.
//   * The heap keeps a base: the time of the last extracted minimum. A
//     record at time t sits in bucket 0 when t == base, else in bucket
//     b = 1 + (highest bit in which t and base differ), one of 65. So a
//     push is one XOR and one count of leading zeros, and every record
//     in bucket b is earlier than every record in any bucket above b.
//   * Records live in one pool, recycled through a free list; each bucket
//     is a singly linked list through the pool, with its minimum time
//     kept on every insert. Memory is bounded by the most records ever
//     queued at once.
//   * Order. Pops take bucket 0's head, and bucket 0 holds exactly the
//     records at the base, in seq order: a push at t == base appends (its
//     seq is the largest yet), and when bucket 0 runs dry the lowest
//     non-empty bucket's minimum becomes the base and that bucket's
//     records move to lower buckets, those landing in bucket 0 sorted by
//     seq. Events therefore fire in strict (time, seq) order. A refill
//     moves each record to a strictly lower bucket, so a record moves at
//     most 64 times, plus once per base lowering (below).
//   * Base lowering. run_until() looks at the front without firing it,
//     which can move the base past t_end; a later schedule_at(t) with
//     t_end <= t < base is legal. Such a push lowers the base to t: with
//     k the highest bit of (base XOR t), buckets 0..k all lie within 2^k
//     of the old base, so they move into bucket k + 1, which is provably
//     empty (its records would have bit k clear where the base has it
//     set), and the buckets above keep their records.
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
//     nothing. Cancelling destroys the callable at once; its queue record
//     stays behind as a ghost, moving between buckets like any record,
//     until step() or run_until() discards it at the front (counted in
//     QueueTelemetry::skipped).
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
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
  std::uint64_t skipped = 0;     // cancelled records discarded at the front
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
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kBuckets = 65;
  static constexpr std::int64_t kNoTime =
      std::numeric_limits<std::int64_t>::max();

  // A queued event: the seq it was scheduled with (a ghost once its slot
  // no longer carries that seq) and the next record of its bucket, or of
  // the free list.
  struct Record {
    std::int64_t time = 0;  // SimTime::count_ns()
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t next = kNil;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::int64_t min_time = kNoTime;  // kNoTime while empty
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
  bool is_ghost(const Record& r) const {
    return slots_[r.slot].seq != r.seq;
  }
  void queue_push(std::int64_t time, std::uint64_t seq, std::uint32_t slot);
  // The earliest record, refilling bucket 0 first; nullptr when empty.
  const Record* front();
  // Unlinks bucket 0's head (front() must have returned it).
  void drop_front();
  bool refill();
  void lower_base(std::int64_t time);
  void link(std::size_t bucket, std::uint32_t r);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::int64_t base_ = 0;
  std::vector<Record> records_;
  std::uint32_t free_records_ = kNil;
  std::array<Bucket, kBuckets> buckets_;
  std::uint32_t tail0_ = kNil;    // bucket 0's last record
  std::uint64_t occupied_ = 0;    // bit b - 1: bucket b >= 1 is non-empty
  std::vector<std::uint32_t> at_base_;  // refill's records at the new base
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO
  QueueTelemetry telemetry_;
  DepthProbe depth_probe_;
  std::vector<TagScope> tags_;
};

}  // namespace hpcos::sim
