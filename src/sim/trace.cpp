#include "sim/trace.h"

#include "obs/prof/mem.h"

namespace hpcos::sim {

std::string to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::kTimerTick:
      return "timer_tick";
    case TraceCategory::kIrq:
      return "irq";
    case TraceCategory::kContextSwitch:
      return "context_switch";
    case TraceCategory::kKworker:
      return "kworker";
    case TraceCategory::kBlkMq:
      return "blk_mq";
    case TraceCategory::kDaemon:
      return "daemon";
    case TraceCategory::kPmuRead:
      return "pmu_read";
    case TraceCategory::kTlbShootdown:
      return "tlb_shootdown";
    case TraceCategory::kSyscall:
      return "syscall";
    case TraceCategory::kSyscallOffload:
      return "syscall_offload";
    case TraceCategory::kPageFault:
      return "page_fault";
    case TraceCategory::kScheduler:
      return "scheduler";
    case TraceCategory::kCollective:
      return "collective";
    case TraceCategory::kUser:
      return "user";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  ring_.resize(capacity);
  if (capacity > 0) {
    static const obs::prof::AllocCounter alloc("trace.ring");
    alloc.add(capacity * sizeof(TraceRecord));
  }
}

void TraceBuffer::record(TraceRecord rec) {
  ++total_;
  if (capacity_ == 0) return;
  ring_[head_] = std::move(rec);
  head_ = (head_ + 1) % capacity_;
  if (used_ < capacity_) ++used_;
}

std::vector<TraceRecord> TraceBuffer::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(used_);
  // Oldest record is at head_ when the ring has wrapped, else at 0.
  const std::size_t start = used_ == capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < used_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

}  // namespace hpcos::sim
