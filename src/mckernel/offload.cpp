#include "mckernel/offload.h"

namespace hpcos::mck {

void ProxyBody::step(os::ThreadContext& ctx) {
  if (phase_ == Phase::kExecuted) {
    // The host kernel just completed the delegated call.
    ihk::IkcMessage reply = std::move(*current_);
    current_.reset();
    reply.result = ctx.last_syscall();
    offloader_.send_reply(std::move(reply));
  }
  if (queue_.empty()) {
    phase_ = Phase::kParked;
    parked_ = true;
    ctx.invoke(os::Syscall::kFutex, os::SyscallArgs{.arg0 = 0});
    return;
  }
  parked_ = false;
  current_ = queue_.pop_front();
  phase_ = Phase::kExecuted;
  current_->proxy_start = offloader_.now();
  ctx.invoke(current_->request.no, current_->request.args);
}

SyscallOffloader::SyscallOffloader(McKernel& lwk, os::NodeKernel& host,
                                   ihk::IkcChannel& to_host,
                                   ihk::IkcChannel& to_lwk,
                                   hw::CpuSet proxy_affinity)
    : lwk_(lwk),
      host_(host),
      to_host_(to_host),
      to_lwk_(to_lwk),
      proxy_affinity_(std::move(proxy_affinity)) {
  to_host_.set_receiver(
      [this](const ihk::IkcMessage& m) { on_host_delivery(m); });
  to_lwk_.set_receiver(
      [this](const ihk::IkcMessage& m) { on_lwk_delivery(m); });
  lwk_.set_offloader(this);
}

void SyscallOffloader::set_registry(obs::Registry* registry) {
  if (registry == nullptr) {
    requests_counter_ = nullptr;
    replies_counter_ = nullptr;
    wakeup_us_h_ = nullptr;
    execute_us_h_ = nullptr;
    reply_us_h_ = nullptr;
    rtt_us_h_ = nullptr;
    backlog_h_ = nullptr;
  } else {
    requests_counter_ = registry->counter("offload.requests");
    replies_counter_ = registry->counter("offload.replies");
    wakeup_us_h_ = registry->histogram("offload.wakeup_us", 0.1, 1e5, 48);
    execute_us_h_ = registry->histogram("offload.execute_us", 0.1, 1e5, 48);
    reply_us_h_ = registry->histogram("offload.reply_us", 0.1, 1e5, 48);
    rtt_us_h_ = registry->histogram("offload.rtt_us", 0.1, 1e5, 48);
    backlog_h_ =
        registry->histogram("offload.proxy.backlog", 1.0, 1024.0, 24);
  }
  to_host_.set_registry(registry);
  to_lwk_.set_registry(registry);
}

void SyscallOffloader::offload(os::ThreadId lwk_tid, os::Pid lwk_pid,
                               const os::SyscallRequest& request) {
  ++requests_;
  obs::bump(requests_counter_);
  const hw::CoreId core = lwk_.thread(lwk_tid).core;  // checks the tid
  if (lwk_tid > pending_.size()) pending_.resize(lwk_tid);
  Pending& pending = pending_[lwk_tid - 1];
  pending.in_flight = true;
  pending.t0 = lwk_.simulator().now();
  pending.core = core;
  sim::TraceBuffer* tb = lwk_.trace();
  pending.span = tb != nullptr && tb->enabled() ? tb->new_span() : 0;

  ihk::IkcMessage m;
  m.sender = lwk_tid;
  m.sender_pid = lwk_pid;
  m.request = request;
  m.span = pending.span;
  m.offload_start = pending.t0;
  // Marshalling on the LWK side happens before the doorbell rings.
  marshalling_.push_back(std::move(m));
  lwk_.simulator().schedule_after(
      lwk_.config().offload_marshal_cost,
      [this] { to_host_.post(marshalling_.pop_front()); },
      "lwk.offload.marshal");
}

void SyscallOffloader::send_reply(ihk::IkcMessage message) {
  message.is_reply = true;
  to_lwk_.post(std::move(message));
}

SyscallOffloader::Proxy& SyscallOffloader::ensure_proxy(os::Pid lwk_pid) {
  auto it = proxies_.find(lwk_pid);
  if (it != proxies_.end()) return it->second;

  // One proxy process per McKernel process, living on the host's system
  // cores (where it cannot disturb application cores).
  auto body = std::make_unique<ProxyBody>(*this);
  ProxyBody* raw = body.get();
  os::SpawnAttrs attrs;
  attrs.name = "mcexec-proxy-" + std::to_string(lwk_pid);
  attrs.affinity = proxy_affinity_;
  const os::ThreadId tid = host_.spawn(std::move(body), std::move(attrs));
  auto [ins, _] = proxies_.emplace(lwk_pid, Proxy{tid, raw});
  return ins->second;
}

void SyscallOffloader::on_host_delivery(const ihk::IkcMessage& message) {
  Proxy& proxy = ensure_proxy(message.sender_pid);
  ihk::IkcMessage stamped = message;
  stamped.host_delivered_at = lwk_.simulator().now();
  proxy.body->enqueue(std::move(stamped));
  obs::observe(backlog_h_, static_cast<double>(proxy.body->backlog()));
  // Ring the proxy's doorbell if it is actually parked in FUTEX_WAIT. (It
  // may be Ready-but-not-dispatched after a previous wake, in which case
  // it will drain the queue on its own.)
  if (proxy.body->parked() &&
      host_.thread(proxy.host_tid).state == os::ThreadState::kBlocked) {
    os::SyscallResult wake;
    wake.ok = true;
    host_.complete_blocked_syscall(proxy.host_tid, wake);
  }
}

void SyscallOffloader::on_lwk_delivery(const ihk::IkcMessage& message) {
  ++replies_;
  obs::bump(replies_counter_);
  os::SyscallResult result = message.result;
  result.path = os::SyscallResult::Path::kOffloaded;
  const SimTime reply_at = lwk_.simulator().now();
  if (message.sender >= 1 && message.sender <= pending_.size() &&
      pending_[message.sender - 1].in_flight) {
    Pending& pending = pending_[message.sender - 1];
    pending.in_flight = false;
    const SimTime rtt = reply_at - pending.t0;
    roundtrip_us_.add(rtt.to_us());
    // Latency split: enqueue -> proxy starts executing -> reply posted ->
    // reply delivered (the reply rides to_lwk_, so it was posted one
    // channel latency ago).
    const SimTime reply_posted = reply_at - to_lwk_.latency();
    obs::observe(wakeup_us_h_, (message.proxy_start - pending.t0).to_us());
    obs::observe(execute_us_h_,
                 (reply_posted - message.proxy_start).to_us());
    obs::observe(reply_us_h_, (reply_at - reply_posted).to_us());
    obs::observe(rtt_us_h_, rtt.to_us());
    if (pending.span != 0) record_offload_spans(pending, message, reply_at);
  }
  lwk_.complete_blocked_syscall(message.sender, result);
}

void SyscallOffloader::record_offload_spans(const Pending& pending,
                                            const ihk::IkcMessage& message,
                                            SimTime reply_at) {
  sim::TraceBuffer* tb = lwk_.trace();
  if (tb == nullptr || !tb->enabled()) return;
  const SimTime marshal = lwk_.config().offload_marshal_cost;
  const SimTime reply_posted = reply_at - to_lwk_.latency();
  auto child = [&](SimTime start, SimTime duration, std::string label) {
    tb->record(sim::TraceRecord{.time = start,
                                .core = pending.core,
                                .category = sim::TraceCategory::kSyscallOffload,
                                .duration = duration,
                                .label = std::move(label),
                                .span = tb->new_span(),
                                .parent = pending.span});
  };
  tb->record(sim::TraceRecord{.time = pending.t0,
                              .core = pending.core,
                              .category = sim::TraceCategory::kSyscallOffload,
                              .duration = reply_at - pending.t0,
                              .label = "offload:" + to_string(message.request.no),
                              .span = pending.span,
                              .parent = 0});
  child(pending.t0, marshal, "offload:marshal");
  child(message.host_delivered_at - to_host_.latency(), to_host_.latency(),
        "ikc:to_host");
  child(message.host_delivered_at,
        message.proxy_start - message.host_delivered_at, "proxy:wakeup");
  child(message.proxy_start, reply_posted - message.proxy_start,
        "proxy:execute");
  child(reply_posted, to_lwk_.latency(), "ikc:to_lwk");
}

}  // namespace hpcos::mck
