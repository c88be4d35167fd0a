#include "obs/live/live.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/prof/counters.h"
#include "obs/prof/mem.h"
#include "obs/prof_report.h"

namespace hpcos::obs::live {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string mib(std::uint64_t bytes) {
  return fmt1(static_cast<double>(bytes) / (1024.0 * 1024.0)) + " MiB";
}

// The watchdog's progress signature: a stall is "none of these moved".
struct Progress {
  std::uint64_t events = 0;
  std::uint64_t units_done = 0;
  std::uint64_t sim_time_ns = 0;

  explicit Progress(const prof::HostCounterSnapshot& snap)
      : events(snap.value(prof::kLiveEvents)),
        units_done(snap.value(prof::kLiveUnitsDone)),
        sim_time_ns(snap.value(prof::kLiveSimTimeNs)) {}
  Progress() = default;
  bool operator==(const Progress&) const = default;
};

}  // namespace

std::string build_stall_snapshot(const Heartbeat& hb, double stalled_for_s) {
  std::ostringstream out;
  out << "=== hpcos stall watchdog: no progress for " << fmt1(stalled_for_s)
      << "s ===\n";
  out << heartbeat_ascii(hb) << "\n";
  out << "des: queue depth " << hb.des_depth << " (max " << hb.des_max_depth
      << "), sim time " << fmt1(hb.sim_time_us / 1e6) << " s, events "
      << hb.events << "\n";
  // The whole host-counter table: live feed, scheduler health (its
  // parallel.backlog gauge counts the chunks no thread has claimed),
  // allocation counters.
  out << "host counters:\n";
  for (const prof::HostCounterValue& c :
       prof::host_counter_snapshot().counters) {
    out << "  " << c.name << " " << c.value << "\n";
  }
  if (prof::enabled()) {
    const prof::Profile profile = prof::collect();
    out << "top profile scopes (self time):\n";
    const std::size_t top = std::min<std::size_t>(5, profile.scopes.size());
    for (std::size_t i = 0; i < top; ++i) {
      const prof::ScopeStat& s = profile.scopes[i];
      out << "  " << s.name << ": count " << s.count << ", self "
          << fmt1(static_cast<double>(s.self_ns) / 1e6) << " ms\n";
    }
  }
  const prof::HostMemory mem = prof::sample_host_memory();
  if (mem.valid) {
    out << "mem: rss " << mib(mem.rss_bytes) << ", peak (VmHWM) "
        << mib(mem.peak_rss_bytes) << "\n";
  }
  out << "=== end stall snapshot ===\n";
  return out.str();
}

struct ProgressMeter::Impl {
  ProgressConfig cfg;
  std::ofstream out;
  std::mutex mu;
  std::condition_variable_any cv;
  std::jthread thread;
  bool started = false;
  bool stopped = false;
  MeterSummary summary;

  Clock::time_point t0;
  // Written by the sampler thread only, read after join: plain fields.
  HeartbeatAggregates agg;
  std::uint64_t seq = 0;
  std::uint64_t stalls = 0;

  Heartbeat sample(const char* kind, double t_ms, double rate) {
    Heartbeat hb;
    hb.target = cfg.target;
    hb.kind = kind;
    hb.seq = seq++;
    hb.t_ms = t_ms;
    const prof::HostCounterSnapshot snap = prof::host_counter_snapshot();
    hb.events = snap.value(prof::kLiveEvents);
    hb.events_per_sec = rate;
    hb.sim_time_us =
        static_cast<double>(snap.value(prof::kLiveSimTimeNs)) / 1e3;
    hb.units_done = snap.value(prof::kLiveUnitsDone);
    hb.units_total = snap.value(prof::kLiveUnitsTotal);
    if (hb.units_total > 0 && hb.units_done > 0 &&
        hb.units_done < hb.units_total) {
      hb.eta_s = (t_ms / 1e3) *
                 static_cast<double>(hb.units_total - hb.units_done) /
                 static_cast<double>(hb.units_done);
    }
    hb.des_depth = snap.value(prof::kLiveDesDepth);
    hb.des_max_depth = snap.value(prof::kLiveDesMaxDepth);
    hb.sched_chunks = snap.value("parallel.chunks");
    hb.sched_steals = snap.value("parallel.steals");
    hb.sched_parks = snap.value("parallel.parks");
    hb.sched_max_depth = snap.value("parallel.max_backlog");
    const prof::HostMemory mem = prof::sample_host_memory();
    if (mem.valid) {
      hb.rss_bytes = mem.rss_bytes;
      hb.peak_rss_bytes = mem.peak_rss_bytes;
    }
    hb.stalls = stalls;
    return hb;
  }

  void emit(const Heartbeat& hb) {
    // heartbeat_line re-validates: a meter that emits schema-invalid
    // records is a bug worth crashing a bench over.
    const JsonValue record = heartbeat_to_json(hb);
    const std::string line = heartbeat_line(record);
    if (out.is_open()) {
      out << line << '\n';
      out.flush();  // tail -f consumers see each tick promptly
    }
    if (cfg.stderr_line) {
      std::fputs((heartbeat_ascii(hb) + "\n").c_str(), stderr);
    }
    // The record just written, folded as aggregate_heartbeats folds the
    // stream, so stop() needs no re-read of the file.
    fold_heartbeat(agg, record);
  }

  void loop(std::stop_token st) {
    const auto interval =
        std::chrono::milliseconds(std::max(10, cfg.interval_ms));
    // The watchdog needs a finer poll than the heartbeat cadence so a
    // stall is noticed within ~a quarter of its threshold, not within
    // one (possibly long) heartbeat interval.
    auto period = interval;
    if (cfg.stall_after_s > 0.0) {
      const auto quarter = std::chrono::milliseconds(std::max<std::int64_t>(
          10, static_cast<std::int64_t>(cfg.stall_after_s * 1000.0 / 4.0)));
      period = std::min(period, quarter);
    }
    auto next_tick = t0 + interval;
    std::uint64_t tick_events = 0;  // events at the previous tick
    double tick_ms = 0.0;
    Progress sig;
    auto last_change = t0;
    bool in_stall = false;
    for (;;) {
      {
        std::unique_lock lk(mu);
        cv.wait_for(lk, st, period, [] { return false; });
      }
      if (st.stop_requested()) return;
      const auto now = Clock::now();
      const double t_ms = ms_since(t0, now);
      const Progress cur(prof::host_counter_snapshot());
      if (cur != sig) {
        sig = cur;
        last_change = now;
        in_stall = false;  // progress resumed: next halt is a new episode
      } else if (cfg.stall_after_s > 0.0 && !in_stall) {
        const double stalled_s = ms_since(last_change, now) / 1e3;
        if (stalled_s >= cfg.stall_after_s) {
          in_stall = true;  // one report per episode
          ++stalls;
          const Heartbeat hb = sample("stall", t_ms, 0.0);
          emit(hb);
          const std::string snap = build_stall_snapshot(hb, stalled_s);
          if (cfg.stall_sink) {
            cfg.stall_sink(snap);
          } else {
            std::fputs(snap.c_str(), stderr);
          }
          if (cfg.abort_on_stall) {
            if (cfg.stall_sink) std::fputs(snap.c_str(), stderr);
            std::fflush(nullptr);
            // _Exit, not exit: the process is wedged; running global
            // destructors from this thread while stalled threads hold
            // locks would hang or crash past the diagnosis we just
            // printed.
            std::_Exit(kStallExitCode);
          }
        }
      }
      if (now >= next_tick) {
        const double dt_s = (t_ms - tick_ms) / 1e3;
        const double rate =
            dt_s > 0.0
                ? static_cast<double>(cur.events - tick_events) / dt_s
                : 0.0;
        emit(sample("tick", t_ms, rate));
        tick_events = cur.events;
        tick_ms = t_ms;
        while (next_tick <= now) next_tick += interval;
      }
    }
  }
};

ProgressMeter::ProgressMeter(ProgressConfig cfg)
    : impl_(std::make_unique<Impl>()) {
  impl_->cfg = std::move(cfg);
}

ProgressMeter::~ProgressMeter() {
  if (impl_ && impl_->started && !impl_->stopped) stop();
}

void ProgressMeter::start() {
  if (impl_->started) throw std::runtime_error("ProgressMeter started twice");
  impl_->started = true;
  if (!impl_->cfg.jsonl_path.empty()) {
    impl_->out.open(impl_->cfg.jsonl_path,
                    std::ios::binary | std::ios::app);
    if (!impl_->out) {
      throw std::runtime_error("cannot open heartbeat stream: " +
                               impl_->cfg.jsonl_path);
    }
  }
  prof::reset_host_counters("live.");
  prof::set_live_feed(true);
  impl_->t0 = Clock::now();
  impl_->thread =
      std::jthread([this](std::stop_token st) { impl_->loop(st); });
}

MeterSummary ProgressMeter::stop() {
  if (!impl_->started) return {};
  if (impl_->stopped) return impl_->summary;
  impl_->stopped = true;
  impl_->thread.request_stop();
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  // Sampler joined: safe to emit the closing record from this thread.
  const double t_ms = ms_since(impl_->t0, Clock::now());
  // The closing record's rate is the whole-run mean.
  Heartbeat hb = impl_->sample("final", t_ms, 0.0);
  hb.events_per_sec =
      t_ms > 0.0 ? static_cast<double>(hb.events) / (t_ms / 1e3) : 0.0;
  impl_->emit(hb);
  prof::set_live_feed(false);
  if (impl_->out.is_open()) impl_->out.close();
  impl_->summary.active = true;
  impl_->summary.agg = impl_->agg;
  return impl_->summary;
}

namespace {

std::mutex g_meter_mu;
std::unique_ptr<ProgressMeter> g_meter;

}  // namespace

void start_global_meter(ProgressConfig cfg) {
  std::lock_guard<std::mutex> lock(g_meter_mu);
  if (g_meter) throw std::runtime_error("global progress meter already running");
  g_meter = std::make_unique<ProgressMeter>(std::move(cfg));
  g_meter->start();
}

MeterSummary stop_global_meter() {
  std::lock_guard<std::mutex> lock(g_meter_mu);
  if (!g_meter) return {};
  MeterSummary summary = g_meter->stop();
  g_meter.reset();
  return summary;
}

}  // namespace hpcos::obs::live
