#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "obs/prof/counters.h"

namespace hpcos {
namespace {

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One parallel_for call. Its claim and completion state is guarded by the
// scheduler mutex; only `stop` is atomic, because a failing chunk sets it
// before it takes that mutex. `parent` is the group whose chunk was
// executing when this group was dispatched (nullptr at top level);
// cancellation checks walk the parent chain so a failing ancestor also
// drains its descendants' unclaimed chunks. Lifetime: a group is a stack
// object in run(), which returns only after every chunk is retired, and a
// parent group cannot complete while the chunk that dispatched a child is
// still executing — so parent pointers never dangle.
struct TaskGroup {
  const std::function<void(std::size_t)>* fn = nullptr;
  TaskGroup* parent = nullptr;
  std::thread::id owner;       // the thread that issued the call
  std::size_t count = 0;
  std::size_t chunk = 0;       // indices per chunk
  std::size_t nchunks = 0;
  std::size_t next = 0;        // first unclaimed chunk
  std::size_t remaining = 0;   // chunks not yet retired
  std::exception_ptr error;    // the first exception
  std::atomic<bool> stop{false};
  std::condition_variable done;  // notified when remaining reaches 0

  bool cancelled() const {
    for (const TaskGroup* g = this; g != nullptr; g = g->parent) {
      if (g->stop.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }
};

// Lazily initialized scheduler: one mutex guards the list of open task
// groups (those with unclaimed chunks) and every group's claim and
// completion state; chunks run with the mutex released. A thread waiting
// on its own group claims that group's next chunk first and otherwise
// the newest open group's, as an idle worker does; idle workers sleep on
// one condition variable. parallel_for dispatches a few task groups and
// at most a few thousand chunks per second, so the one lock is never
// contended enough to need per-thread queues.
class Scheduler {
 public:
  static Scheduler& instance() {
    static Scheduler s;
    return s;
  }

  std::size_t capacity() const { return nworkers_ + 1; }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn,
           std::size_t participants) {
    const bool nested = tl_in_region_;
    std::unique_lock<std::mutex> session;
    if (!nested) {
      session = std::unique_lock<std::mutex>(session_mutex_);
      tl_in_region_ = true;
    }

    TaskGroup group;
    group.fn = &fn;
    group.parent = tl_executing_;
    group.owner = std::this_thread::get_id();
    group.count = count;
    // Dynamic chunking: modest chunks so stragglers (nodes with busy
    // noise traces) don't serialize the run. Boundaries are a pure
    // function of (count, participants); results never depend on them.
    group.chunk = std::max<std::size_t>(1, count / (participants * 8));
    group.nchunks = (count + group.chunk - 1) / group.chunk;
    group.remaining = group.nchunks;
    groups_->add(1);
    if (nested) nested_groups_->add(1);

    std::unique_lock<std::mutex> lock(mutex_);
    open_.push_back(&group);
    set_backlog(backlog_ + group.nchunks);
    max_backlog_->note_max(backlog_);
    const std::size_t wake = std::min(participants - 1, sleepers_);
    wakeups_->add(wake);
    for (std::size_t i = 0; i < wake; ++i) idle_.notify_one();

    // Help until the group completes. Blocking is safe only once nothing
    // is claimable: this group's chunks are then all in flight on other
    // threads, which by induction make progress, and the last one to
    // retire notifies `done`.
    while (group.remaining > 0) {
      std::size_t index = 0;
      if (TaskGroup* g = claim(&group, index)) {
        execute(*g, index, lock);
        continue;
      }
      group.done.wait(lock, [&] { return group.remaining == 0; });
    }
    lock.unlock();

    if (!nested) tl_in_region_ = false;
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
    workers_.reserve(nworkers_);
    for (std::size_t i = 0; i < nworkers_; ++i) {
      workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
    }
  }

  void worker_loop(std::stop_token st) {
    tl_in_region_ = true;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!st.stop_requested()) {
      std::size_t index = 0;
      if (TaskGroup* g = claim(nullptr, index)) {
        execute(*g, index, lock);
        continue;
      }
      ++sleepers_;
      const std::int64_t park_start = host_now_ns();
      idle_.wait(lock, st, [&] { return backlog_ > 0; });
      parks_->add(1);
      park_ns_->add(static_cast<std::uint64_t>(host_now_ns() - park_start));
      --sleepers_;
    }
  }

  // The next chunk for a thread waiting on `own` (nullptr: an idle
  // worker): own's first, else the newest open group's. Returns its
  // group and sets `index`, or returns nullptr when nothing is
  // claimable. A cancelled group met on the way retires its unclaimed
  // chunks unstarted. Caller holds mutex_.
  TaskGroup* claim(TaskGroup* own, std::size_t& index) {
    for (;;) {
      TaskGroup* g = own;
      if (g == nullptr || g->next == g->nchunks) {
        if (open_.empty()) return nullptr;
        g = open_.back();
      }
      if (!g->cancelled()) {
        index = take(*g, 1);
        return g;
      }
      const std::size_t unclaimed = g->nchunks - g->next;
      take(*g, unclaimed);
      retire(*g, unclaimed);
    }
  }

  // Claims the next `n` of g's chunks, closing g once none are left;
  // returns the first one's index.
  std::size_t take(TaskGroup& g, std::size_t n) {
    const std::size_t first = g.next;
    g.next += n;
    set_backlog(backlog_ - n);
    if (g.next == g.nchunks) {
      open_.erase(std::find(open_.begin(), open_.end(), &g));
    }
    return first;
  }

  void retire(TaskGroup& g, std::size_t n) {
    g.remaining -= n;
    if (g.remaining == 0) g.done.notify_one();
  }

  void set_backlog(std::size_t n) {
    backlog_ = n;
    backlog_gauge_->set(n);
  }

  // Runs chunk `index` of g with mutex_ released, then retires it.
  void execute(TaskGroup& g, std::size_t index,
               std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    chunks_->add(1);
    if (g.owner != std::this_thread::get_id()) steals_->add(1);
    TaskGroup* const prev = tl_executing_;
    tl_executing_ = &g;
    std::exception_ptr error;
    const std::size_t end = std::min(g.count, (index + 1) * g.chunk);
    for (std::size_t i = index * g.chunk; i < end; ++i) {
      try {
        (*g.fn)(i);
      } catch (...) {
        // Stop before taking the lock, so no participant claims another
        // of this nest's chunks while this thread waits for it.
        g.stop.store(true, std::memory_order_relaxed);
        error = std::current_exception();
        break;
      }
    }
    tl_executing_ = prev;
    lock.lock();
    if (error && !g.error) g.error = error;
    retire(g, 1);
  }

  // Top-level session (external callers serialize; workers never take it).
  std::mutex session_mutex_;

  std::mutex mutex_;
  std::condition_variable_any idle_;  // _any: waitable with a stop_token
  std::vector<TaskGroup*> open_;      // oldest first; guarded by mutex_
  std::size_t backlog_ = 0;   // unclaimed chunks in open_; guarded by mutex_
  std::size_t sleepers_ = 0;  // workers waiting on idle_; guarded by mutex_
  std::size_t nworkers_ = 0;

  obs::prof::HostCounter* const groups_ =
      obs::prof::host_counter("parallel.groups");
  obs::prof::HostCounter* const nested_groups_ =
      obs::prof::host_counter("parallel.nested_groups");
  obs::prof::HostCounter* const chunks_ =
      obs::prof::host_counter("parallel.chunks");
  obs::prof::HostCounter* const steals_ =
      obs::prof::host_counter("parallel.steals");
  obs::prof::HostCounter* const wakeups_ =
      obs::prof::host_counter("parallel.wakeups");
  obs::prof::HostCounter* const parks_ =
      obs::prof::host_counter("parallel.parks");
  obs::prof::HostCounter* const park_ns_ =
      obs::prof::host_counter("parallel.park_ns");
  obs::prof::HostCounter* const backlog_gauge_ =
      obs::prof::host_counter("parallel.backlog");
  obs::prof::HostCounter* const max_backlog_ =
      obs::prof::host_counter("parallel.max_backlog");

  std::vector<std::jthread> workers_;  // request_stop + join on destruction

  static thread_local bool tl_in_region_;
  static thread_local TaskGroup* tl_executing_;
};

thread_local bool Scheduler::tl_in_region_ = false;
thread_local TaskGroup* Scheduler::tl_executing_ = nullptr;

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
