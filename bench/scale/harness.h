// Measurement harness of bench_scale: host clocks, the host-speed
// calibration kernel, output digests and the outside-in span recorder.
//
// Only write_chrome_trace calls repository code (the JSON writer), so no
// change to the simulator can move a clock, the calibration or a span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scale {

// Seconds on the steady clock since the first call in this process.
double now_s();
// CPU seconds consumed so far by every thread of this process.
double process_cpu_s();
// Peak resident set size (VmHWM) of this process in MB (10^6 bytes).
double peak_rss_mb();

// Fixed host-speed probe: fill 2^19 splitmix64 values and sort them
// (~50 ms). Standard library only. Returns the wall seconds of one pass.
double calibrate_s();

// Median and linear-interpolated quantile (q in [0, 1]) of a sample set.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

// 64-bit FNV-1a over the byte patterns of the values fed in: a compact,
// exact fingerprint of a seeded simulation output.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_i64(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add_double(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Spans recorded from outside the simulator: name, parent, start, end.
// Kept in memory and written out once the run ends. Spans are opened and
// closed on the calling thread only; a disabled tracer records nothing.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Scope scope(std::string name) {
    return Scope(enabled_ ? this : nullptr, std::move(name));
  }
  // Sum of the durations of the top-level spans.
  double top_level_s() const;
  // Chrome trace_event JSON ("X" events, parent name in args).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;  // index into spans_, -1 for a top-level span
    double start_s = 0.0;
    double end_s = 0.0;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace scale
