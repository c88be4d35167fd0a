#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "common/json.h"

namespace scale {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double calibrate_s() {
  // The buffer is allocated once so that page faults stay out of the timing.
  static std::vector<std::uint64_t> buf(std::size_t{1} << 19);
  const double t0 = now_s();
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (auto& e : buf) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    e = z ^ (z >> 31);
  }
  std::sort(buf.begin(), buf.end());
  const double t1 = now_s();
  if (!std::is_sorted(buf.begin(), buf.end())) {
    throw std::logic_error("calibration kernel did not sort");
  }
  return t1 - t0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty set");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_double(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

std::string Digest::hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(h_ >> (4 * i)) & 0xF];
  return out;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back(Span{std::move(name), parent, now_s(), 0.0});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s = now_s();
  tracer_->open_.pop_back();
}

double Tracer::top_level_s() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) sum += s.end_s - s.start_s;
  }
  return sum;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  hpcos::JsonValue events = hpcos::JsonValue::array();
  for (const Span& s : spans_) {
    hpcos::JsonValue e = hpcos::JsonValue::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("ts", s.start_s * 1e6);
    e.set("dur", (s.end_s - s.start_s) * 1e6);
    hpcos::JsonValue args = hpcos::JsonValue::object();
    args.set("parent", s.parent < 0
                           ? std::string()
                           : spans_[static_cast<std::size_t>(s.parent)].name);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  hpcos::JsonValue doc = hpcos::JsonValue::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump();
  if (!out) throw std::runtime_error("cannot write span trace: " + path);
}

}  // namespace scale
