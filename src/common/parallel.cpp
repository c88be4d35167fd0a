#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "obs/prof/counters.h"
#include "obs/prof/mem.h"

namespace hpcos {
namespace {

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TaskGroup;

// One contiguous index range of one task group. Chunks live in their
// group's pre-sized vector (stable addresses), so deques store plain
// pointers and claiming a chunk never allocates.
struct Chunk {
  TaskGroup* group = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

// One parallel_for call: its chunk storage, completion count, and error
// state. `parent` is the group whose chunk was executing when this group
// was submitted (nullptr at top level); cancellation checks walk the
// parent chain so a failing ancestor also drains its descendants'
// remaining chunks. Lifetime: a group is a stack object in run(), which
// returns only after every chunk is claimed and finished, and a parent
// group cannot complete while the chunk that spawned a child is still
// executing — so parent pointers never dangle.
struct TaskGroup {
  const std::function<void(std::size_t)>* fn = nullptr;
  TaskGroup* parent = nullptr;
  std::vector<Chunk> chunks;
  std::atomic<bool> stop{false};
  // Completion state is fully mutex-guarded on purpose: the group is a
  // stack object in run(), so the waiter may only observe "remaining ==
  // 0" under the same lock inside which the last finisher decremented
  // and notified — otherwise the waiter could destroy the group while
  // that finisher is still touching the condition variable.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;     // guarded by done_mutex
  std::exception_ptr error;      // guarded by done_mutex

  bool cancelled() const {
    for (const TaskGroup* g = this; g != nullptr; g = g->parent) {
      if (g->stop.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }
};

// Chase-Lev work-stealing deque (Lê et al., "Correct and Efficient
// Work-Stealing for Weak Memory Models", PPoPP'13) in the fence-free
// seq_cst formulation: the owner pushes/pops at the bottom without locks,
// thieves CAS the top. Slots are atomic pointers, and the owner's
// release-store of `bottom_` paired with thieves' acquire-loads carries
// the happens-before edge for the chunk payload, so the algorithm is
// both C++-correct and ThreadSanitizer-clean without standalone fences.
// Grown buffers are retired, not freed, until the deque dies: a thief
// racing a grow may still read the old buffer's slot for an index the
// grow copied, which stays valid.
class ChunkDeque {
 public:
  ChunkDeque() { buf_.store(new_buffer(kInitialCap), std::memory_order_relaxed); }

  // Owner only.
  void push(Chunk* c) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* a = buf_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(a->cap)) a = grow(a, t, b);
    a->put(b, c);
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner only. nullptr when empty (or when a thief won the last item).
  Chunk* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* a = buf_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    Chunk* c = nullptr;
    if (t <= b) {
      c = a->get(b);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          c = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return c;
  }

  // Any thread. nullptr when empty or when the CAS lost a race (callers
  // treat both as "try another victim").
  Chunk* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Buffer* a = buf_.load(std::memory_order_acquire);
    Chunk* c = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return c;
  }

  // Any thread; approximate by design (two relaxed loads racing pops and
  // steals). Good enough for backlog telemetry, never for control flow.
  std::size_t approx_depth() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  static constexpr std::size_t kInitialCap = 256;  // power of two

  struct Buffer {
    explicit Buffer(std::size_t n)
        : cap(n), mask(n - 1),
          slots(std::make_unique<std::atomic<Chunk*>[]>(n)) {}
    const std::size_t cap;
    const std::size_t mask;
    std::unique_ptr<std::atomic<Chunk*>[]> slots;

    Chunk* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, Chunk* c) {
      slots[static_cast<std::size_t>(i) & mask].store(
          c, std::memory_order_relaxed);
    }
  };

  Buffer* new_buffer(std::size_t n) {
    buffers_.push_back(std::make_unique<Buffer>(n));
    static const obs::prof::AllocCounter alloc("parallel.deque");
    alloc.add(sizeof(Buffer) + n * sizeof(std::atomic<Chunk*>));
    return buffers_.back().get();
  }

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    Buffer* bigger = new_buffer(old->cap * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buf_.store(bigger, std::memory_order_release);
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Buffer*> buf_{nullptr};
  std::vector<std::unique_ptr<Buffer>> buffers_;  // owner-only; retired kept
};

constexpr std::ptrdiff_t kNoSlot = -1;

// Lazily-initialized work-stealing scheduler. Deque slot 0 belongs to
// whichever external thread holds the session mutex (top-level calls
// serialize, as before); slots 1..n belong to the persistent workers.
// Dispatch wakes only as many sleeping workers as the task group can
// use — never the whole pool — and idle workers park on a condition
// variable guarded by a publish epoch so no published chunk can be
// missed without a wakeup token being minted for it.
class Scheduler {
 public:
  static Scheduler& instance() {
    static Scheduler s;
    return s;
  }

  std::size_t capacity() const { return nworkers_ + 1; }

  std::vector<WorkerHealth> worker_health() const {
    std::vector<WorkerHealth> out(nworkers_ + 1);
    for (std::size_t i = 0; i <= nworkers_; ++i) {
      const SlotHealth& h = health_[i];
      out[i].chunks = h.chunks.load(std::memory_order_relaxed);
      out[i].pushes = h.pushes.load(std::memory_order_relaxed);
      out[i].steals = h.steals.load(std::memory_order_relaxed);
      out[i].steal_attempts =
          h.steal_attempts.load(std::memory_order_relaxed);
      out[i].parks = h.parks.load(std::memory_order_relaxed);
      out[i].park_ns = h.park_ns.load(std::memory_order_relaxed);
      out[i].depth_sum = h.depth_sum.load(std::memory_order_relaxed);
      out[i].depth_samples =
          h.depth_samples.load(std::memory_order_relaxed);
      out[i].max_depth = h.max_depth.load(std::memory_order_relaxed);
    }
    return out;
  }

  std::vector<std::size_t> deque_depths() const {
    // Live backlog snapshot for the stall watchdog: approx_depth is two
    // relaxed loads per slot (telemetry, never control flow), so this is
    // safe to call from a watchdog thread while the slots run.
    std::vector<std::size_t> out(nworkers_ + 1);
    for (std::size_t i = 0; i <= nworkers_; ++i) {
      out[i] = deques_[i].approx_depth();
    }
    return out;
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn,
           std::size_t participants) {
    const bool nested = tl_slot_ != kNoSlot;
    std::unique_lock<std::mutex> session;
    if (!nested) {
      session = std::unique_lock<std::mutex>(session_mutex_);
      tl_slot_ = 0;
    }

    TaskGroup group;
    group.fn = &fn;
    group.parent = tl_executing_;
    // Dynamic chunking: modest chunks so stragglers (nodes with busy
    // noise traces) don't serialize the run. Boundaries are a pure
    // function of (count, participants); results never depend on them.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (participants * 8));
    const std::size_t nchunks = (count + chunk - 1) / chunk;
    group.chunks.resize(nchunks);
    for (std::size_t i = 0; i < nchunks; ++i) {
      group.chunks[i].group = &group;
      group.chunks[i].begin = i * chunk;
      group.chunks[i].end = std::min(count, (i + 1) * chunk);
    }
    group.remaining = nchunks;  // published by the deque pushes below

    groups_->add(1);
    if (nested) nested_groups_->add(1);

    // Publish: reverse push so the owner pops index-ascending chunks
    // (locality) while thieves steal from the high end.
    ChunkDeque& dq = deques_[static_cast<std::size_t>(tl_slot_)];
    for (std::size_t i = nchunks; i-- > 0;) dq.push(&group.chunks[i]);
    health_[static_cast<std::size_t>(tl_slot_)].pushes.fetch_add(
        nchunks, std::memory_order_relaxed);
    sample_depths();
    wake_workers(participants - 1);

    help(group);

    if (!nested) tl_slot_ = kNoSlot;
    if (group.error) std::rethrow_exception(group.error);
  }

 private:
  Scheduler() {
    std::size_t n = default_parallelism();
    if (const char* env = std::getenv("HPCOS_PARALLEL_WORKERS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1 && v <= 256) {
        n = static_cast<std::size_t>(v);
      }
    }
    nworkers_ = n;
    deques_ = std::make_unique<ChunkDeque[]>(nworkers_ + 1);
    health_ = std::make_unique<SlotHealth[]>(nworkers_ + 1);
    workers_.reserve(nworkers_);
    for (std::size_t i = 0; i < nworkers_; ++i) {
      workers_.emplace_back(
          [this, i](std::stop_token st) { worker_loop(i + 1, st); });
    }
  }

  void worker_loop(std::size_t slot, std::stop_token st) {
    tl_slot_ = static_cast<std::ptrdiff_t>(slot);
    tl_rng_ = 0x9E3779B97F4A7C15ull * (slot + 1) | 1;
    while (!st.stop_requested()) {
      // The epoch is sampled before probing: if a publish lands after the
      // probe missed it, the epoch comparison under the sleep mutex
      // detects it and re-probes instead of sleeping through it.
      const std::uint64_t seen =
          publish_epoch_.load(std::memory_order_acquire);
      Chunk* c = deques_[slot].pop();
      if (c == nullptr) c = try_steal();
      if (c != nullptr) {
        execute(*c);
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      if (publish_epoch_.load(std::memory_order_relaxed) != seen) continue;
      ++sleepers_;
      const std::int64_t park_start = host_now_ns();
      sleep_cv_.wait(lock, st, [&] { return wake_tokens_ > 0; });
      const std::int64_t park_end = host_now_ns();
      if (wake_tokens_ > 0) --wake_tokens_;
      --sleepers_;
      lock.unlock();
      SlotHealth& h = health_[slot];
      h.parks.fetch_add(1, std::memory_order_relaxed);
      h.park_ns.fetch_add(static_cast<std::uint64_t>(park_end - park_start),
                          std::memory_order_relaxed);
    }
  }

  // Wake at most `want` sleeping workers; already-awake workers find new
  // chunks by stealing. Minting tokens under the sleep mutex (after the
  // chunks are pushed) pairs with the epoch re-check in worker_loop, so
  // a worker can neither miss the work nor be woken without need.
  void wake_workers(std::size_t want) {
    std::size_t granted = 0;
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      publish_epoch_.fetch_add(1, std::memory_order_release);
      const std::size_t asleep =
          sleepers_ > wake_tokens_ ? sleepers_ - wake_tokens_ : 0;
      granted = std::min(want, asleep);
      wake_tokens_ += granted;
    }
    wakeups_->add(granted);
    for (std::size_t i = 0; i < granted; ++i) sleep_cv_.notify_one();
  }

  // Run chunks until `group` completes. Local chunks first, then steals
  // (which may execute sibling or descendant groups' chunks — helping is
  // always safe because a chunk never blocks on anything but its own
  // descendants). Blocking is safe only once nothing is runnable
  // anywhere: this group's chunks are then all in flight on other
  // threads, which by induction make progress, and the last finisher
  // notifies done_cv.
  void help(TaskGroup& group) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(group.done_mutex);
        if (group.remaining == 0) return;
      }
      Chunk* c = deques_[static_cast<std::size_t>(tl_slot_)].pop();
      if (c == nullptr) c = try_steal();
      if (c != nullptr) {
        execute(*c);
        continue;
      }
      std::unique_lock<std::mutex> lock(group.done_mutex);
      group.done_cv.wait(lock, [&] { return group.remaining == 0; });
      return;
    }
  }

  Chunk* try_steal() {
    const std::size_t n = nworkers_ + 1;
    const std::size_t me = static_cast<std::size_t>(tl_slot_);
    if (tl_rng_ == 0) {
      tl_rng_ = 0x9E3779B97F4A7C15ull * (me + 2) | 1;
    }
    std::uint64_t attempts = 0;
    Chunk* c = nullptr;
    // Randomized victims first (contention spread), then one
    // deterministic sweep so "no chunk anywhere" is a reliable verdict
    // before a caller decides to block or sleep.
    for (std::size_t round = 0; round < 2 * n && c == nullptr; ++round) {
      tl_rng_ ^= tl_rng_ << 13;
      tl_rng_ ^= tl_rng_ >> 7;
      tl_rng_ ^= tl_rng_ << 17;
      const std::size_t victim = static_cast<std::size_t>(tl_rng_ % n);
      if (victim == me) continue;
      ++attempts;
      c = deques_[victim].steal();
    }
    for (std::size_t victim = 0; victim < n && c == nullptr; ++victim) {
      if (victim == me) continue;
      ++attempts;
      c = deques_[victim].steal();
    }
    SlotHealth& h = health_[me];
    h.steal_attempts.fetch_add(attempts, std::memory_order_relaxed);
    if (c != nullptr) h.steals.fetch_add(1, std::memory_order_relaxed);
    return c;
  }

  // Publish-time backlog probe: one relaxed depth read per deque.
  void sample_depths() {
    for (std::size_t i = 0; i <= nworkers_; ++i) {
      const std::uint64_t d = deques_[i].approx_depth();
      SlotHealth& h = health_[i];
      h.depth_sum.fetch_add(d, std::memory_order_relaxed);
      h.depth_samples.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t prev = h.max_depth.load(std::memory_order_relaxed);
      while (prev < d && !h.max_depth.compare_exchange_weak(
                             prev, d, std::memory_order_relaxed)) {
      }
    }
  }

  void execute(Chunk& c) {
    TaskGroup* g = c.group;
    // A cancelling ancestor drains descendants too: claimed chunks are
    // discarded (never started), preserving chunk-granularity fail-fast.
    if (!g->cancelled()) {
      TaskGroup* const prev = tl_executing_;
      tl_executing_ = g;
      health_[static_cast<std::size_t>(tl_slot_)].chunks.fetch_add(
          1, std::memory_order_relaxed);
      for (std::size_t i = c.begin; i < c.end; ++i) {
        try {
          (*g->fn)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(g->done_mutex);
            if (!g->error) g->error = std::current_exception();
          }
          g->stop.store(true, std::memory_order_relaxed);
          break;
        }
      }
      tl_executing_ = prev;
    }
    // Decrement AND notify inside the critical section: the waiter can
    // then only see completion after this finisher is done with the
    // group's synchronization objects (see TaskGroup).
    std::lock_guard<std::mutex> lock(g->done_mutex);
    if (--g->remaining == 0) g->done_cv.notify_all();
  }

  // Per-slot health counters. Each counter has a single writer (the
  // slot's own thread) except max_depth/depth_sum/depth_samples, which
  // any publisher may bump; cache-line alignment keeps the common
  // single-writer case free of false sharing.
  struct alignas(64) SlotHealth {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> pushes{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> park_ns{0};
    std::atomic<std::uint64_t> depth_sum{0};
    std::atomic<std::uint64_t> depth_samples{0};
    std::atomic<std::uint64_t> max_depth{0};
  };

  // Top-level session (external callers serialize; workers never take it).
  std::mutex session_mutex_;

  // Sleep/wake machinery.
  std::mutex sleep_mutex_;
  std::condition_variable_any sleep_cv_;  // _any: waitable with stop_token
  std::size_t sleepers_ = 0;              // guarded by sleep_mutex_
  std::size_t wake_tokens_ = 0;           // guarded by sleep_mutex_
  std::atomic<std::uint64_t> publish_epoch_{0};

  std::size_t nworkers_ = 0;
  std::unique_ptr<ChunkDeque[]> deques_;  // [0] = external caller slot
  std::unique_ptr<SlotHealth[]> health_;  // parallel to deques_
  std::vector<std::jthread> workers_;     // request_stop + join on destruction

  // Dispatch counters in the host-counter table. Chunk and steal totals
  // need no table entry: they are sums over the per-slot health above.
  obs::prof::HostCounter* const wakeups_ =
      obs::prof::host_counter("parallel.wakeups");
  obs::prof::HostCounter* const groups_ =
      obs::prof::host_counter("parallel.groups");
  obs::prof::HostCounter* const nested_groups_ =
      obs::prof::host_counter("parallel.nested_groups");

  static thread_local std::ptrdiff_t tl_slot_;
  static thread_local TaskGroup* tl_executing_;
  static thread_local std::uint64_t tl_rng_;
};

thread_local std::ptrdiff_t Scheduler::tl_slot_ = kNoSlot;
thread_local TaskGroup* Scheduler::tl_executing_ = nullptr;
thread_local std::uint64_t Scheduler::tl_rng_ = 0;

}  // namespace

std::size_t default_parallelism() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t parallel_capacity() { return Scheduler::instance().capacity(); }

std::vector<WorkerHealth> parallel_worker_health() {
  return Scheduler::instance().worker_health();
}

WorkerHealth parallel_health_total() {
  WorkerHealth total;
  for (const WorkerHealth& h : parallel_worker_health()) {
    total.chunks += h.chunks;
    total.pushes += h.pushes;
    total.steals += h.steals;
    total.steal_attempts += h.steal_attempts;
    total.parks += h.parks;
    total.park_ns += h.park_ns;
    total.depth_sum += h.depth_sum;
    total.depth_samples += h.depth_samples;
    total.max_depth = std::max(total.max_depth, h.max_depth);
  }
  return total;
}

std::vector<std::size_t> parallel_deque_depths() {
  return Scheduler::instance().deque_depths();
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) threads = default_parallelism();
  threads = std::min(threads, count);
  if (threads > 1) {
    threads = std::min(threads, Scheduler::instance().capacity());
  }
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Scheduler::instance().run(count, fn, threads);
}

}  // namespace hpcos
