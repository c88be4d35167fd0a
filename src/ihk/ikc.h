// Inter-Kernel Communication (IKC).
//
// IHK's IKC layer carries system-call delegation traffic between McKernel
// and Linux: a doorbell interrupt plus a shared-memory message queue. The
// model is a unidirectional channel with a fixed one-way latency (doorbell
// IPI + queue handling); the pair of channels forms the offload path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/ring_fifo.h"
#include "common/sim_time.h"
#include "obs/registry.h"
#include "oskernel/syscall.h"
#include "oskernel/types.h"
#include "sim/simulator.h"

namespace hpcos::ihk {

struct IkcMessage {
  std::uint64_t seq = 0;
  // LWK-side thread awaiting the reply (carried through so the reply
  // handler can wake it).
  os::ThreadId sender = os::kInvalidThread;
  os::Pid sender_pid = os::kInvalidPid;
  os::SyscallRequest request;
  os::SyscallResult result;
  bool is_reply = false;
  SimTime sent_at;

  // Observability: the span id of the offload operation this message
  // belongs to (0 when tracing is off) plus the path timestamps collected
  // as the message crosses the stack. The reply handler reconstructs the
  // whole round trip from these (see mckernel/offload.cpp).
  std::uint64_t span = 0;
  SimTime offload_start;       // LWK-side enqueue (before marshalling)
  SimTime host_delivered_at;   // doorbell delivery on the Linux side
  SimTime proxy_start;         // proxy thread began executing the call
};

class IkcChannel {
 public:
  using Handler = std::function<void(const IkcMessage&)>;

  IkcChannel(sim::Simulator& simulator, std::string name, SimTime latency);

  // Destination-side delivery callback; must be set before post().
  void set_receiver(Handler handler) { receiver_ = std::move(handler); }

  // Register this channel's counters (ikc.<name>.posted / .delivered) and
  // the queue-depth histogram (ikc.<name>.inflight, sampled at each post).
  // Optional; the channel runs uninstrumented when never called.
  void set_registry(obs::Registry* registry);

  // Enqueue a message; delivered (receiver invoked) after the channel
  // latency. Messages never reorder: the latency is fixed and the
  // simulator breaks equal timestamps in scheduling order, so the k-th
  // delivery event carries the k-th message posted.
  void post(IkcMessage message);

  const std::string& name() const { return name_; }
  SimTime latency() const { return latency_; }
  std::uint64_t messages_posted() const { return posted_; }
  std::uint64_t messages_delivered() const { return delivered_; }

 private:
  // Pops the oldest in-flight message and hands it to the receiver.
  void deliver();

  sim::Simulator& sim_;
  std::string name_;
  SimTime latency_;
  Handler receiver_;
  // Posted, not yet delivered, oldest first (so delivery events capture
  // only `this`).
  RingFifo<IkcMessage> inflight_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t posted_ = 0;
  std::uint64_t delivered_ = 0;
  obs::Counter* posted_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  LogHistogram* inflight_hist_ = nullptr;
};

}  // namespace hpcos::ihk
