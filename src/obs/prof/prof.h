// Host-side self-profiler: where does the *simulator's own* time go?
//
// Every observability layer so far (Registry, spans, attribution ledger,
// TimeSeries) measures simulated time. This module points the same
// discipline at the host: the ROADMAP's full-Fugaku scale rework ("profile
// and rework the DES hot loop") needs the simulator's host-side cost
// decomposed into a measurable signal before any calendar-queue or
// arena/SoA change can be evidence-driven.
//
// Design (mirrors the Registry's hot-path cost rules):
//   * PROF_SCOPE("des.event.fire") opens a steady_clock-timed scope. A
//     site compiles to one branch when profiling is disabled (the armed
//     check), and two clock reads plus one ring-buffer append when it is
//     enabled. No locks on the hot path.
//   * Each scope instance is a span: at entry it takes an id unique
//     across threads (its buffer's index in the high bits) and links to
//     the thread's innermost open scope as its parent. Nesting is never
//     reconstructed here; sim::SpanForest rebuilds it from those links.
//   * Each thread writes completed scopes into its own pre-sized ring
//     buffer (registered at its first scope entry under a mutex, written
//     single-writer afterwards, allocated uninitialized so registration
//     costs no page faults). The only cross-thread handshake is a
//     release-store of the buffer's size, acquire-loaded by snapshot() —
//     ThreadSanitizer-clean by construction.
//   * collect() (obs/prof_report.h) turns a snapshot into one Profile: a
//     ranked self/total-time hotspot table keyed by scope *name* (scope
//     fire counts are a pure function of the simulated work, so the
//     merged counts are bit-identical across host thread counts — the
//     determinism contract the tests pin) and the forest's folded-stack
//     text (input format of flamegraph.pl/speedscope).
//   * Buffers never wrap: a full buffer drops new scopes and counts the
//     drops, because silently overwriting parents would corrupt the
//     span links. Children whose parent was dropped become roots, so the
//     accounting still closes. Size the buffer for the measurement window
//     (set_thread_buffer_capacity) and reset() between windows.
//
// Scope naming follows the repo-wide counter rule:
//   <subsystem>.<object>[.<detail>]  e.g. des.fire.linux.tick, fwq.shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hpcos::obs::prof {

// Stable id for a scope name. Interning allocates (mutex + map) and is
// meant to run once per call site (PROF_SCOPE caches it in a function-
// local static), never per fire.
using ScopeId = std::uint32_t;
ScopeId intern(const std::string& name);

// Global enable switch (relaxed atomic; one load per scope entry).
bool enabled();
void set_enabled(bool on);

// Ring capacity, in scope events, for per-thread buffers created after
// this call (existing buffers keep their size). Default 1<<16 (~2.5 MiB
// per participating thread, touched only as it fills).
void set_thread_buffer_capacity(std::size_t events);

// Clear every thread's buffer and drop counters. Callers must quiesce
// first: no PROF_SCOPE may be open on any thread (between parallel_for
// regions the scheduler's workers are parked, which is the intended
// reset point).
void reset();

// Nanoseconds on the process-local steady clock (epoch = first call).
// The profiler's own timestamps, exposed so other host-side telemetry
// (scheduler park timelines, DES handler attribution) shares one clock.
std::int64_t now_ns();

class ScopedTimer {
 public:
  explicit ScopedTimer(ScopeId id);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Whether this instance is recording (profiler was enabled at entry).
  bool armed() const { return armed_; }
  // Entry timestamp (now_ns clock); 0 when not armed.
  std::int64_t start_ns() const { return start_; }

 private:
  ScopeId id_ = 0;
  std::int64_t start_ = 0;
  std::uint64_t span_ = 0;
  std::uint64_t parent_ = 0;
  bool armed_ = false;
};

#define HPCOS_PROF_CONCAT2(a, b) a##b
#define HPCOS_PROF_CONCAT(a, b) HPCOS_PROF_CONCAT2(a, b)
// Scoped hotspot probe. The id interns once (function-local static); the
// timer is one branch when the profiler is disabled.
#define PROF_SCOPE(name)                                           \
  static const ::hpcos::obs::prof::ScopeId HPCOS_PROF_CONCAT(      \
      hpcos_prof_id_, __LINE__) = ::hpcos::obs::prof::intern(name); \
  ::hpcos::obs::prof::ScopedTimer HPCOS_PROF_CONCAT(               \
      hpcos_prof_scope_, __LINE__)(                                \
      HPCOS_PROF_CONCAT(hpcos_prof_id_, __LINE__))

// Merged per-name statistics. total_ns sums instance durations (a
// recursive scope contributes once per instance, so self-recursion
// inflates total but never self); self_ns subtracts time covered by
// nested scopes, so self times sum correctly at every depth.
struct ScopeStat {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct Profile {
  // Ranked by self_ns descending, name ascending on ties. Counts are
  // bit-identical across host thread counts; times are host-dependent.
  std::vector<ScopeStat> scopes;
  // Folded-stack text of the scope forest: "<path> <self-ns>\n" lines,
  // path-sorted, zero-self paths omitted (sim::folded_stack output, the
  // flamegraph.pl/speedscope input format).
  std::string folded;
  std::uint64_t threads = 0;  // thread buffers merged
  std::uint64_t events = 0;   // scope events merged
  std::uint64_t dropped = 0;  // scope events lost to full buffers
  // Sum of root-scope durations. By construction sum_self_ns() equals
  // this exactly, so checking it against a wall-clock measurement of the
  // profiled region validates the whole accounting chain.
  std::int64_t root_total_ns = 0;

  const ScopeStat* find(const std::string& name) const;
  std::int64_t sum_self_ns() const;
};

// One completed scope instance, as its thread's buffer holds it. No
// member initializers: rings are allocated uninitialized.
struct ScopeEvent {
  ScopeId id;
  std::uint64_t span;    // unique across threads, never 0
  std::uint64_t parent;  // enclosing scope's span on this thread; 0 = root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// Raw copy of every registered thread buffer (buffers keep their contents
// until reset()). collect() in obs/prof_report builds the Profile from it.
struct Snapshot {
  std::vector<std::string> names;  // ScopeId -> scope name
  std::vector<ScopeEvent> events;  // buffer by buffer, each in exit order
  std::uint64_t threads = 0;       // buffers holding at least one event
  std::uint64_t dropped = 0;       // scope events lost to full buffers
};
Snapshot snapshot();

}  // namespace hpcos::obs::prof
