// ftrace-style event tracing.
//
// §4.2.1 of the paper identifies interfering kernel tasks with ftrace; the
// substrate mirrors that workflow: kernel models emit trace records into a
// bounded ring buffer, and analysis code (tests, the noise_explain tool)
// filters and aggregates them to attribute noise to its source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "hw/ids.h"

namespace hpcos::sim {

enum class TraceCategory : std::uint8_t {
  kTimerTick,
  kIrq,
  kContextSwitch,
  kKworker,
  kBlkMq,
  kDaemon,
  kPmuRead,
  kTlbShootdown,
  kSyscall,
  kSyscallOffload,
  kPageFault,
  kScheduler,
  kCollective,
  kUser,
};
std::string to_string(TraceCategory c);

struct TraceRecord {
  SimTime time;
  hw::CoreId core = hw::kInvalidCore;
  TraceCategory category = TraceCategory::kUser;
  SimTime duration;      // zero for instantaneous markers
  std::string label;     // e.g. daemon name, syscall name

  // Span identity: a multi-hop operation (an offloaded syscall crossing
  // LWK -> IKC -> proxy -> IKC -> LWK) records one root span plus child
  // spans carrying the root's id as `parent`, so analysis can rebuild the
  // whole operation as a tree (and export it to Chrome trace_event JSON —
  // see chrome_trace.h). 0 means "not part of a span tree".
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

class TraceBuffer {
 public:
  // capacity == 0 disables tracing entirely (zero overhead on hot paths
  // beyond one branch).
  explicit TraceBuffer(std::size_t capacity = 0);

  bool enabled() const { return capacity_ > 0; }
  void record(TraceRecord rec);

  // Allocate a fresh span id (never 0). Ids are unique per buffer, which
  // is the scope any one export covers.
  std::uint64_t new_span() { return ++next_span_; }

  std::size_t size() const { return used_; }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const { return total_ - used_; }

  // Records in chronological order (oldest retained first).
  std::vector<TraceRecord> snapshot() const;

 private:
  std::size_t capacity_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;  // next write slot
  std::size_t used_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t next_span_ = 0;
};

}  // namespace hpcos::sim
