// bench_scale: host-time benchmark of the simulator at the paper's three
// scales (a DES node and cluster, the Fig. 4 campaigns, the Figs. 5-7
// plans). README.md lists the workloads, metrics, bounds and the A/B
// protocol.
//
//   bench_scale --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//               [--quick] [--json PATH] [--update-expected]
//
// --trace 0 (default) runs reps of one workload, rep i on seed N+i, until S
// seconds have passed (at least kMinReps), and prints the end-to-end
// metrics: medians over the reps of host times normalised by the
// calibration kernel timed around each rep. --trace 1 runs the traced pass over every workload, since the
// per-layer metrics span all four, and prints the per-layer metrics.
// Either way each metric is printed as "<workload> <metric> <value> <unit>"
// and the last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. A failed output check exits 1.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "harness.h"
#include "obs/bench_report.h"
#include "workloads.h"

namespace {

using namespace scale;
using hpcos::JsonValue;

// Median calibrate_s() over 80 runs on the reference host (4-vCPU KVM
// guest on a Xeon with AVX-512, g++ 12 -O3). Normalised host times are
// seconds of that host: raw x kCalibRefS / calib.
constexpr double kCalibRefS = 0.048;

constexpr int kMinReps = 3;
// Share of process wall the traced pass's top-level spans must cover.
constexpr double kMinClosure = 0.95;

const char* const kUsage =
    "usage: bench_scale --workload des_node|des_cluster|fig4_campaign|"
    "bsp_plans\n"
    "                   [--seed N] [--seconds S] [--trace 0|1] [--quick]\n"
    "                   [--json PATH] [--update-expected]\n";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1.0;  // < 0: 20 s, or 0 with --quick
  bool trace = false;
  bool quick = false;
  std::string json;
  bool update_expected = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "bench_scale: " << msg << "\n" << kUsage;
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t end = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end != text.size() || text.empty() || text[0] == '-') {
    usage_error(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, value());
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(arg, value()));
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--json") {
      o.json = value();
    } else if (arg == "--update-expected") {
      o.update_expected = true;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (find_workload(o.workload) == nullptr) {
    usage_error("--workload must name one of the four workloads");
  }
  if (o.seconds < 0.0) o.seconds = o.quick ? 0.0 : 20.0;
  return o;
}

// Reference digests, bench/scale/expected.json:
//   { "<workload>[.quick]": { "<seed>": <digest>, ... }, ... }
class Expected {
 public:
  explicit Expected(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    if (!in) return;
    std::stringstream text;
    text << in.rdbuf();
    doc_ = JsonValue::parse(text.str());
    if (!doc_.is_object()) throw std::runtime_error(path_ + ": not an object");
  }

  // "" when `digest` matches the reference or there is none for the seed.
  std::string check(const std::string& key, std::uint64_t seed,
                    const JsonValue& digest) const {
    const JsonValue* per_seed = doc_.find(key);
    const JsonValue* want =
        per_seed == nullptr ? nullptr : per_seed->find(std::to_string(seed));
    if (want == nullptr || want->dump() == digest.dump()) return {};
    return "digest for seed " + std::to_string(seed) + " differs from " +
           path_ + "\n  expected " + want->dump() + "\n  got      " +
           digest.dump();
  }

  void record(const std::string& key, std::uint64_t seed, JsonValue digest) {
    const JsonValue* existing = doc_.find(key);
    JsonValue per_seed = existing != nullptr ? *existing : JsonValue::object();
    per_seed.set(std::to_string(seed), std::move(digest));
    doc_.set(key, std::move(per_seed));
  }

  void save() const {
    std::ofstream out(path_);
    out << doc_.dump_pretty() << "\n";
    if (!out) throw std::runtime_error("cannot write " + path_);
  }

 private:
  std::string path_;
  JsonValue doc_ = JsonValue::object();
};

std::string expected_key(const Workload& w, bool quick) {
  return std::string(w.name) + (quick ? ".quick" : "");
}

std::string report_path(const Options& o, const std::string& stem) {
  if (!o.json.empty()) return o.json;
  std::filesystem::create_directories(BENCH_SCALE_OUT_DIR);
  return std::string(BENCH_SCALE_OUT_DIR) + "/" + stem + ".json";
}

void print_metric(const std::string& workload, const std::string& name,
                  double value, const std::string& unit) {
  std::cout << workload << " " << name << " " << hpcos::json_format_number(value)
            << " " << unit << "\n";
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<LayerMetric>& metrics) {
  JsonValue m = JsonValue::object();
  for (const LayerMetric& x : metrics) {
    JsonValue v = JsonValue::object();
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  JsonValue doc = JsonValue::object();
  doc.set("correct", correct);
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  doc.set("metrics", std::move(m));
  std::cout << doc.dump() << std::endl;
}

hpcos::obs::BenchMetric with_quartiles(const std::string& name,
                                       const std::string& unit,
                                       const std::vector<double>& v) {
  return hpcos::obs::BenchMetric{.name = name,
                                 .unit = unit,
                                 .value = median(v),
                                 .percentiles = {{"p25", quantile(v, 0.25)},
                                                 {"p50", median(v)},
                                                 {"p75", quantile(v, 0.75)}}};
}

int timed_pass(const Options& o, const Workload& w, std::size_t threads,
               Expected& expected) {
  Tracer off(false);
  const std::string key = expected_key(w, o.quick);
  // Per rep: host times scaled to the reference host, and raw.
  std::vector<double> rate, wall, setup, cpu;
  std::vector<double> raw_rate, raw_wall, raw_setup, raw_cpu, calib;
  int attempted = 0;
  int failed = 0;
  const double start = now_s();
  double calib_before = calibrate_s();
  while (attempted < kMinReps || now_s() - start < o.seconds) {
    const std::uint64_t seed = o.seed + static_cast<std::uint64_t>(attempted);
    RepResult r = w.rep(RepCtx{.seed = seed,
                               .quick = o.quick,
                               .threads = threads,
                               .traced = false,
                               .tracer = &off});
    ++attempted;
    if (r.error.empty()) {
      if (o.update_expected) {
        expected.record(key, seed, r.digest);
      } else {
        r.error = expected.check(key, seed, r.digest);
      }
    }
    if (!r.error.empty()) {
      ++failed;
      std::cerr << "bench_scale: " << w.name << " seed " << seed << ": "
                << r.error << "\n";
    }
    // The host's speed drifts over seconds on a shared machine; the mean of
    // the calibrations bracketing a rep tracks it better than either one.
    const double calib_after = calibrate_s();
    const double c = (calib_before + calib_after) / 2.0;
    calib_before = calib_after;
    const double k = kCalibRefS / c;
    calib.push_back(c);
    raw_rate.push_back(r.work / r.run_s);
    raw_wall.push_back(r.run_s);
    raw_setup.push_back(r.setup_s);
    raw_cpu.push_back(r.cpu_s);
    rate.push_back(r.work / r.run_s / k);
    wall.push_back(r.run_s * k);
    setup.push_back(r.setup_s * k);
    cpu.push_back(r.cpu_s * k);
  }
  if (o.update_expected && failed == 0) expected.save();

  const std::vector<LayerMetric> e2e = {
      {"work_per_s", "1/s", median(rate)},
      {"wall_s", "s", median(wall)},
      {"setup_s", "s", median(setup)},
      {"cpu_s", "s", median(cpu)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  const double failed_frac = static_cast<double>(failed) / attempted;

  hpcos::obs::BenchReport report("bench_scale." + std::string(w.name),
                                 o.quick, o.seed);
  report.add_metric(with_quartiles("work_per_s", "1/s", rate));
  report.add_metric(with_quartiles(w.rate_name, "1/s", rate));
  report.add_metric(with_quartiles("wall_s", "s", wall));
  report.add_metric(with_quartiles("setup_s", "s", setup));
  report.add_metric(with_quartiles("cpu_s", "s", cpu));
  report.add_metric("peak_rss_mb", "MB", e2e.back().value);
  report.add_metric("failed_frac", "ratio", failed_frac);
  report.add_metric("reps", "count", attempted);
  report.add_metric("threads", "count", static_cast<double>(threads));
  report.add_metric(with_quartiles("host.work_per_s", "1/s", raw_rate));
  report.add_metric(with_quartiles("host.wall_s", "s", raw_wall));
  report.add_metric(with_quartiles("host.setup_s", "s", raw_setup));
  report.add_metric(with_quartiles("host.cpu_s", "s", raw_cpu));
  report.add_metric(with_quartiles("host.calib_s", "s", calib));
  report.write(report_path(o, w.name));

  for (const LayerMetric& m : e2e) print_metric(w.name, m.name, m.value, m.unit);
  print_metric(w.name, w.rate_name, median(rate), "1/s");
  print_metric(w.name, "failed_frac", failed_frac, "ratio");
  print_metric(w.name, "reps", attempted, "count");
  print_metric(w.name, "threads", static_cast<double>(threads), "count");
  print_metric(w.name, "host.work_per_s", median(raw_rate), "1/s");
  print_metric(w.name, "host.wall_s", median(raw_wall), "s");
  print_metric(w.name, "host.setup_s", median(raw_setup), "s");
  print_metric(w.name, "host.cpu_s", median(raw_cpu), "s");
  print_metric(w.name, "host.calib_s", median(calib), "s");
  print_result(failed == 0, attempted, failed, e2e);
  return failed == 0 ? 0 : 1;
}

int traced_pass(const Options& o, std::size_t threads, Expected& expected,
                Tracer& tracer, double t_main) {
  std::vector<LayerMetric> metrics;
  std::vector<double> calib;
  int attempted = 0;
  int failed = 0;
  auto fail = [&](const std::string& what) {
    ++failed;
    std::cerr << "bench_scale: " << what << "\n";
  };
  for (const Workload& w : workloads()) {
    const auto span = tracer.scope(w.name);
    const std::string name = w.name;
    RepCtx ctx{.seed = o.seed,
               .quick = o.quick,
               .threads = threads,
               .traced = false,
               .tracer = &tracer};
    RepResult untraced;
    RepResult traced;
    {
      const auto s = tracer.scope("calibrate");
      calib.push_back(calibrate_s());
    }
    {
      const auto s = tracer.scope("untraced");
      untraced = w.rep(ctx);
    }
    ctx.traced = true;
    {
      const auto s = tracer.scope("traced");
      traced = w.rep(ctx);
    }
    attempted += 2;
    if (untraced.error.empty()) {
      untraced.error = expected.check(expected_key(w, o.quick), o.seed,
                                      untraced.digest);
    }
    if (!untraced.error.empty()) fail(name + " untraced: " + untraced.error);
    if (!traced.error.empty()) {
      fail(name + " traced: " + traced.error);
    } else if (traced.digest.dump() != untraced.digest.dump()) {
      fail(name + " traced: digest differs from the untraced rep");
    }
    Extras x;
    {
      const auto s = tracer.scope("extras");
      x = w.extras(ctx, untraced, traced);
    }
    attempted += x.reps;
    for (const std::string& e : x.errors) fail(name + " " + e);

    x.layers.push_back({"trace.overhead", "ratio",
                        traced.run_s / untraced.run_s - 1.0});
    x.layers.push_back({"host.wall_s", "s", untraced.run_s});
    for (const auto* list : {&traced.layers, &x.layers}) {
      for (const LayerMetric& m : *list) {
        print_metric(name, m.name, m.value, m.unit);
        metrics.push_back({name + "." + m.name, m.unit, m.value});
      }
    }
  }
  metrics.push_back({"calib_s", "s", median(calib)});
  print_metric("traced", "calib_s", metrics.back().value, "s");

  // The report holds the closure up to its own write; the check below
  // includes the write.
  const std::string path = report_path(o, "traced");
  {
    const auto s = tracer.scope("report");
    hpcos::obs::BenchReport report("bench_scale.traced", o.quick, o.seed);
    for (const LayerMetric& m : metrics) report.add_metric(m.name, m.unit, m.value);
    report.add_metric("accounting.closure", "ratio",
                      tracer.top_level_s() / (now_s() - t_main));
    report.add_metric("threads", "count", static_cast<double>(threads));
    report.write(path);
  }
  const double closure = tracer.top_level_s() / (now_s() - t_main);
  metrics.push_back({"accounting.closure", "ratio", closure});
  const bool closed = closure >= kMinClosure && closure <= 1.0;
  if (!closed) {
    std::cerr << "bench_scale: top-level spans cover "
              << hpcos::json_format_number(closure)
              << " of process wall; the run is not fully attributed\n";
  }
  const std::string stem = path.size() > 5 && path.ends_with(".json")
                               ? path.substr(0, path.size() - 5)
                               : path;
  tracer.write_chrome_trace(stem + ".trace.json");

  print_metric("traced", "accounting.closure", closure, "ratio");
  print_result(failed == 0 && closed, attempted, failed, metrics);
  return failed == 0 && closed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = now_s();
  try {
    const Options o = parse(argc, argv);
    // Threads: min(nproc, 4). The scheduler's caller slot is one of them,
    // so the pool gets threads - 1 workers unless the caller chose a size.
    const std::size_t threads =
        std::min<std::size_t>(hpcos::default_parallelism(), 4);
    setenv("HPCOS_PARALLEL_WORKERS",
           std::to_string(std::max<std::size_t>(threads - 1, 1)).c_str(),
           /*overwrite=*/0);
    Tracer tracer(o.trace);
    Expected expected = [&] {
      const auto s = tracer.scope("load_expected");
      return Expected(BENCH_SCALE_DIR "/expected.json");
    }();
    return o.trace ? traced_pass(o, threads, expected, tracer, t_main)
                   : timed_pass(o, *find_workload(o.workload), threads,
                                expected);
  } catch (const std::exception& e) {
    std::cerr << "bench_scale: " << e.what() << "\n";
    return 1;
  }
}
