// System-call delegation: IKC + proxy processes (§5).
//
// For every process on McKernel there is a proxy process on Linux whose
// job is to provide the execution context for offloaded system calls: the
// LWK thread blocks, an IKC message crosses to Linux, the proxy thread
// wakes and *actually invokes the call on the Linux kernel* (paying Linux's
// trap and service costs, plus any queueing on the busy assistant cores),
// and the result rides an IKC message back. Linux-side state (file
// descriptor tables etc.) thus lives where Linux expects it; McKernel just
// forwards the numbers it gets back — e.g. it has no fd table of its own.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ring_fifo.h"
#include "common/stats.h"
#include "ihk/ikc.h"
#include "mckernel/mckernel.h"

namespace hpcos::mck {

class SyscallOffloader;

// Linux-side proxy thread: parks in FUTEX_WAIT, drains its request queue
// by invoking the requested syscalls on the host kernel, replies via IKC.
class ProxyBody final : public os::ThreadBody {
 public:
  explicit ProxyBody(SyscallOffloader& offloader) : offloader_(offloader) {}

  void step(os::ThreadContext& ctx) override;

  void enqueue(ihk::IkcMessage message) {
    queue_.push_back(std::move(message));
  }
  bool parked() const { return parked_; }

 private:
  enum class Phase : std::uint8_t { kStart, kParked, kExecuted };

  SyscallOffloader& offloader_;
  RingFifo<ihk::IkcMessage> queue_;
  std::optional<ihk::IkcMessage> current_;
  Phase phase_ = Phase::kStart;
  bool parked_ = false;
};

class SyscallOffloader {
 public:
  // `host` is the Linux kernel instance; proxies are spawned there with
  // `proxy_affinity` (the assistant cores). The channels come from the
  // IHK OS instance.
  SyscallOffloader(McKernel& lwk, os::NodeKernel& host,
                   ihk::IkcChannel& to_host, ihk::IkcChannel& to_lwk,
                   hw::CpuSet proxy_affinity);

  // Called by McKernel for a blocked, delegated syscall.
  void offload(os::ThreadId lwk_tid, os::Pid lwk_pid,
               const os::SyscallRequest& request);

  // Proxy-side: ship a completed request's result back to the LWK.
  void send_reply(ihk::IkcMessage message);

  // Current simulated time (proxy bodies stamp their execution start).
  SimTime now() { return lwk_.simulator().now(); }

  // The node's offload.requests / offload.replies counters.
  std::uint64_t requests() const { return requests_; }
  std::uint64_t replies() const { return replies_; }
  // Round-trip latency (LWK block -> LWK wake) observed so far, in us.
  const OnlineStats& roundtrip_us() const { return roundtrip_us_; }
  std::size_t proxy_count() const { return proxies_.size(); }

 private:
  struct Proxy {
    os::ThreadId host_tid = os::kInvalidThread;
    ProxyBody* body = nullptr;  // owned by the host thread record
  };
  // One in-flight offload per LWK thread (the thread blocks until the
  // reply): its start time, issuing core, and root span id.
  struct Pending {
    bool in_flight = false;
    SimTime t0;
    hw::CoreId core = hw::kInvalidCore;
    std::uint64_t span = 0;
  };
  Proxy& ensure_proxy(os::Pid lwk_pid);
  void on_host_delivery(const ihk::IkcMessage& message);
  void on_lwk_delivery(const ihk::IkcMessage& message);
  // Emit the round trip as a parent-linked span tree (root + marshal,
  // both IKC hops, proxy wakeup and execute) into the LWK trace buffer.
  void record_offload_spans(const Pending& pending,
                            const ihk::IkcMessage& message, SimTime reply_at);

  McKernel& lwk_;
  os::NodeKernel& host_;
  ihk::IkcChannel& to_host_;
  ihk::IkcChannel& to_lwk_;
  hw::CpuSet proxy_affinity_;
  std::unordered_map<os::Pid, Proxy> proxies_;
  // By LWK tid - 1 (tids are dense from 1), grown to the largest sender.
  std::vector<Pending> pending_;
  // Requests being marshalled, oldest first: the marshal cost is fixed,
  // so they finish in the order they started.
  RingFifo<ihk::IkcMessage> marshalling_;
  std::uint64_t requests_ = 0;
  std::uint64_t replies_ = 0;
  OnlineStats roundtrip_us_;
};

}  // namespace hpcos::mck
