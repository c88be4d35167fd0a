#include "ihk/ikc.h"

#include "common/check.h"

namespace hpcos::ihk {

IkcChannel::IkcChannel(sim::Simulator& simulator, std::string name,
                       SimTime latency)
    : sim_(simulator), name_(std::move(name)), latency_(latency) {
  HPCOS_CHECK(!latency_.is_negative());
}

void IkcChannel::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    posted_counter_ = nullptr;
    delivered_counter_ = nullptr;
    inflight_hist_ = nullptr;
    return;
  }
  posted_counter_ = registry->counter("ikc." + name_ + ".posted");
  delivered_counter_ = registry->counter("ikc." + name_ + ".delivered");
  inflight_hist_ = registry->histogram("ikc." + name_ + ".inflight",
                                       /*min_value=*/1.0,
                                       /*max_value=*/4096.0, /*num_bins=*/32);
}

void IkcChannel::post(IkcMessage message) {
  HPCOS_CHECK_MSG(receiver_ != nullptr,
                  "IKC post on channel without a receiver");
  message.seq = next_seq_++;
  message.sent_at = sim_.now();
  ++posted_;
  obs::bump(posted_counter_);
  // Queue depth the new message observes (itself included).
  obs::observe(inflight_hist_, static_cast<double>(posted_ - delivered_));
  inflight_.push_back(std::move(message));
  sim_.schedule_after(latency_, [this] { deliver(); }, "ikc.deliver");
}

void IkcChannel::deliver() {
  // Off the queue before the receiver runs, which may post again.
  const IkcMessage msg = inflight_.pop_front();
  ++delivered_;
  obs::bump(delivered_counter_);
  receiver_(msg);
}

}  // namespace hpcos::ihk
