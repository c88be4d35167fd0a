#include "ihk/ikc.h"

#include "common/check.h"

namespace hpcos::ihk {

IkcChannel::IkcChannel(sim::Simulator& simulator, std::string name,
                       SimTime latency)
    : sim_(simulator), name_(std::move(name)), latency_(latency) {
  HPCOS_CHECK(!latency_.is_negative());
}

void IkcChannel::post(IkcMessage message) {
  HPCOS_CHECK_MSG(receiver_ != nullptr,
                  "IKC post on channel without a receiver");
  message.seq = next_seq_++;
  message.sent_at = sim_.now();
  ++posted_;
  inflight_.push_back(std::move(message));
  sim_.schedule_after(latency_, [this] { deliver(); }, "ikc.deliver");
}

void IkcChannel::deliver() {
  // Off the queue before the receiver runs, which may post again.
  const IkcMessage msg = inflight_.pop_front();
  ++delivered_;
  receiver_(msg);
}

}  // namespace hpcos::ihk
