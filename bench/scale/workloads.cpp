#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "apps/registry.h"
#include "cluster/bsp.h"
#include "cluster/des_cluster.h"
#include "cluster/fwq_campaign.h"
#include "cluster/machine_noise.h"
#include "cluster/node.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "noise/analytic.h"
#include "noise/fwq.h"
#include "noise/profiles.h"

namespace scale {
namespace {

using namespace hpcos;

constexpr SimTime kQuantum = SimTime::from_ms(6.5);  // the paper's FWQ quantum

double layer_value(const RepResult& r, const std::string& name) {
  for (const LayerMetric& m : r.layers) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("traced rep lacks layer metric " + name);
}

// Value at quantile q of `v` (reorders v).
double nth(std::vector<double>& v, double q) {
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  OnlineStats st;
  for (double x : v) st.add(x);
  return st.mean();
}

// Runs a comparison variant and checks that it reproduced `reference`.
RepResult run_variant(const char* name, const RepCtx& ctx,
                      RepResult (*rep)(const RepCtx&),
                      const RepResult& reference, Extras& x) {
  const auto span = ctx.tracer->scope(name);
  RepResult r = rep(ctx);
  ++x.reps;
  if (!r.error.empty()) {
    x.errors.push_back(std::string(name) + ": " + r.error);
  } else if (r.digest.dump() != reference.digest.dump()) {
    x.errors.push_back(std::string(name) + ": digest differs from the "
                                           "untraced rep");
  }
  return r;
}

// ---------------------------------------------------------------- DES ----

hw::CpuSet pin(const hw::NodeTopology& topo, hw::CoreId core) {
  return hw::CpuSet::of(static_cast<std::size_t>(topo.logical_cores()),
                        {core});
}

// An LWK thread issuing `calls` back-to-back stat() calls, each delegated
// through IKC to its Linux proxy.
class StatCaller final : public os::ThreadBody {
 public:
  explicit StatCaller(std::uint64_t calls) : calls_(calls) {}

  void step(os::ThreadContext& ctx) override {
    if (issued_ > 0 && ctx.last_syscall().ok &&
        ctx.last_syscall().path == os::SyscallResult::Path::kOffloaded) {
      ++completed_;
    }
    if (issued_ == calls_) {
      ctx.exit();
      return;
    }
    ++issued_;
    ctx.invoke(os::Syscall::kStat);
  }

  std::uint64_t completed() const { return completed_; }

 private:
  std::uint64_t calls_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
};

const noise::FwqThread* spawn_fwq(os::NodeKernel& kernel,
                                  const hw::NodeTopology& topo,
                                  hw::CoreId core, std::string name,
                                  noise::FwqConfig config) {
  auto body = std::make_unique<noise::FwqThread>(config);
  const noise::FwqThread* handle = body.get();
  os::SpawnAttrs attrs;
  attrs.name = std::move(name);
  attrs.affinity = pin(topo, core);
  kernel.spawn(std::move(body), std::move(attrs));
  return handle;
}

// What the traced step loop observed.
struct StepLoop {
  std::vector<double> step_ns;
  double depth_sum = 0.0;
  std::size_t depth_max = 0;
};

// The drive loop of noise::run_fwq and DesCluster::run_fwq_all, timing
// every Simulator::step() and sampling the queue depth before it.
void drive(sim::Simulator& sim,
           const std::vector<const noise::FwqThread*>& bodies,
           StepLoop& loop) {
  auto all_done = [&] {
    for (const noise::FwqThread* b : bodies) {
      if (!b->finished()) return false;
    }
    return true;
  };
  while (!all_done()) {
    const std::size_t depth = sim.pending_count();
    loop.depth_sum += static_cast<double>(depth);
    loop.depth_max = std::max(loop.depth_max, depth);
    const double t0 = now_s();
    const bool progressed = sim.step();
    loop.step_ns.push_back((now_s() - t0) * 1e9);
    if (!progressed) {
      throw std::runtime_error("FWQ deadlock: event queue drained early");
    }
  }
}

// Checks every FWQ trace and folds it into `d`. Returns the first
// violation, or "" when every trace holds `iterations` samples >= quantum.
std::string check_traces(const std::vector<noise::FwqTrace>& traces,
                         std::uint64_t iterations, Digest& d) {
  for (const noise::FwqTrace& t : traces) {
    if (t.iteration_times.size() != iterations) {
      return "FWQ trace on core " + std::to_string(t.core) + " has " +
             std::to_string(t.iteration_times.size()) + " samples, expected " +
             std::to_string(iterations);
    }
    d.add_i64(t.core);
    for (const SimTime it : t.iteration_times) {
      if (it < kQuantum) {
        return "FWQ iteration shorter than the quantum on core " +
               std::to_string(t.core);
      }
      d.add_i64(it.count_ns());
    }
  }
  return {};
}

JsonValue des_digest(const Digest& d, const sim::Simulator& sim) {
  const sim::QueueTelemetry& q = sim.queue_telemetry();
  JsonValue j = JsonValue::object();
  j.set("fwq_hash", d.hex());
  j.set("events", sim.events_executed());
  j.set("sim_end_ns", sim.now().count_ns());
  j.set("pushes", q.pushes);
  j.set("pops", q.pops);
  j.set("cancels", q.cancels);
  return j;
}

void add_des_layers(StepLoop& loop, const sim::Simulator& sim,
                    std::vector<LayerMetric>& out) {
  const sim::QueueTelemetry& q = sim.queue_telemetry();
  const auto steps = static_cast<double>(loop.step_ns.size());
  out.push_back({"sim.step_ns.p50", "ns", nth(loop.step_ns, 0.50)});
  out.push_back({"sim.step_ns.p99", "ns", nth(loop.step_ns, 0.99)});
  out.push_back({"sim.step_ns.p999", "ns", nth(loop.step_ns, 0.999)});
  out.push_back({"sim.step_ns.count", "count", steps});
  out.push_back({"sim.queue.depth_mean", "count", loop.depth_sum / steps});
  out.push_back({"sim.queue.depth_max", "count",
                 static_cast<double>(loop.depth_max)});
  out.push_back({"sim.queue.pushes", "count", static_cast<double>(q.pushes)});
  out.push_back({"sim.queue.cancels", "count",
                 static_cast<double>(q.cancels)});
  out.push_back({"sim.queue.skipped", "count",
                 static_cast<double>(q.skipped)});
  out.push_back({"sim.queue.skipped_per_pop", "ratio",
                 static_cast<double>(q.skipped) / static_cast<double>(q.pops)});
}

// schedule_at + step with no-op handlers on a fresh Simulator held at
// `depth` pending events. Deltas are exponential with the mean time an
// event waits in the workload's queue (Little's law: depth x mean gap).
double queue_op_ns(std::size_t depth, double residence_ns, std::uint64_t seed,
                   std::size_t ops) {
  sim::Simulator s;
  RngStream rng(Seed{seed}, 0x0E0E);
  std::vector<SimTime> deltas(depth + ops);
  for (SimTime& d : deltas) {
    d = SimTime::ns(1 + static_cast<std::int64_t>(rng.exponential(residence_ns)));
  }
  for (std::size_t i = 0; i < depth; ++i) s.schedule_at(deltas[i], [] {});
  const double t0 = now_s();
  for (std::size_t i = 0; i < ops; ++i) {
    s.schedule_at(s.now() + deltas[depth + i], [] {});
    s.step();
  }
  return (now_s() - t0) * 1e9 / static_cast<double>(ops);
}

// sim.queue.op_ns at the traced rep's mean depth, and the share of the
// untraced run it would account for.
void add_queue_layers(const RepCtx& ctx, const RepResult& untraced,
                      const RepResult& traced, Extras& x) {
  const auto span = ctx.tracer->scope("queue_microbench");
  const double depth = layer_value(traced, "sim.queue.depth_mean");
  const double gap_ns = traced.digest.at("sim_end_ns").as_number() /
                        traced.digest.at("events").as_number();
  const double op_ns =
      queue_op_ns(static_cast<std::size_t>(std::llround(depth)),
                  depth * gap_ns, ctx.seed, ctx.quick ? 50'000 : 1'000'000);
  x.layers.push_back({"sim.queue.op_ns", "ns", op_ns});
  x.layers.push_back({"sim.queue.est_share", "ratio",
                      op_ns * untraced.work / (untraced.run_s * 1e9)});
}

constexpr std::size_t kOffloadThreads = 4;

RepResult des_node_run(const RepCtx& ctx, bool with_offload) {
  Tracer& tr = *ctx.tracer;
  // One paper measurement: 6 simulated minutes of 6.5 ms quanta.
  const std::uint64_t iterations = ctx.quick ? 1'000 : 55'385;
  const std::uint64_t calls = ctx.quick ? 1'000 : 100'000;
  RepResult r;
  std::unique_ptr<cluster::SimNode> node;
  std::vector<const StatCaller*> callers;
  hw::CpuSet fwq_cores;
  double build_s = 0.0;
  {
    const auto span = tr.scope("setup");
    const double t0 = now_s();
    auto platform = hw::make_fugaku_testbed_platform();
    auto lcfg = linuxk::make_fugaku_linux_config(platform);
    lcfg.profile = noise::strip_population_tails(lcfg.profile);
    {
      const auto build = tr.scope("make_multikernel_node");
      const double b0 = now_s();
      node = cluster::SimNode::make_multikernel_node(
          std::move(platform), std::move(lcfg),
          mck::McKernelConfig::defaults(),
          cluster::SimNodeOptions{.seed = Seed{ctx.seed}});
      build_s = now_s() - b0;
    }
    // FWQ on all but the last kOffloadThreads application cores; the
    // offloading threads are pinned there, since the co-operative LWK
    // scheduler would never run them beside FWQ on the same core.
    const hw::NodeTopology& topo = node->topology();
    const auto app = topo.application_cores().to_vector();
    fwq_cores = hw::CpuSet(static_cast<std::size_t>(topo.logical_cores()));
    for (std::size_t i = 0; i + kOffloadThreads < app.size(); ++i) {
      fwq_cores.set(app[i]);
    }
    if (with_offload) {
      const auto spawn = tr.scope("spawn_offload_threads");
      for (std::size_t i = app.size() - kOffloadThreads; i < app.size(); ++i) {
        auto body = std::make_unique<StatCaller>(calls);
        callers.push_back(body.get());
        os::SpawnAttrs attrs;
        attrs.name = "stat-" + std::to_string(app[i]);
        attrs.affinity = pin(topo, app[i]);
        node->lwk()->spawn(std::move(body), std::move(attrs));
      }
    }
    r.setup_s = now_s() - t0;
  }

  sim::Simulator& sim = node->simulator();
  const noise::FwqConfig fwq{.work_quantum = kQuantum,
                             .iterations = iterations};
  std::vector<noise::FwqTrace> traces;
  StepLoop loop;
  const std::uint64_t events0 = sim.events_executed();
  {
    const auto span = tr.scope("run");
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    if (!ctx.traced) {
      traces = noise::run_fwq(*node->lwk(), fwq_cores, fwq);
    } else {
      // noise::run_fwq by hand: same spawn order, names and pinning.
      std::vector<const noise::FwqThread*> bodies;
      {
        const auto spawn = tr.scope("spawn_fwq_threads");
        for (const hw::CoreId core : fwq_cores.to_vector()) {
          bodies.push_back(spawn_fwq(*node->lwk(), node->topology(), core,
                                     "fwq-" + std::to_string(core), fwq));
        }
      }
      {
        const auto steps = tr.scope("step_loop");
        drive(sim, bodies, loop);
      }
      for (const noise::FwqThread* b : bodies) traces.push_back(b->trace());
    }
    r.run_s = now_s() - t0;
    r.cpu_s = process_cpu_s() - c0;
  }
  r.work = static_cast<double>(sim.events_executed() - events0);

  const auto span = tr.scope("verify");
  Digest d;
  r.error = check_traces(traces, iterations, d);
  std::uint64_t completed = 0;
  for (const StatCaller* c : callers) {
    if (r.error.empty() && c->completed() != calls) {
      r.error = "an offloading thread completed " +
                std::to_string(c->completed()) + " of " +
                std::to_string(calls) + " stat() calls";
    }
    completed += c->completed();
  }
  const mck::SyscallOffloader& off = *node->offloader();
  if (r.error.empty() && (off.requests() != completed ||
                          off.replies() != off.requests())) {
    r.error = "offload requests/replies do not match the completions";
  }
  r.digest = des_digest(d, sim);
  r.digest.set("offload_replies", off.replies());
  if (ctx.traced) {
    add_des_layers(loop, sim, r.layers);
    r.layers.push_back({"node.build_s", "s", build_s});
    r.layers.push_back(
        {"offload.syscalls", "count", static_cast<double>(completed)});
  }
  return r;
}

RepResult des_node_rep(const RepCtx& ctx) { return des_node_run(ctx, true); }

Extras des_node_extras(const RepCtx& ctx, const RepResult& untraced,
                       const RepResult& traced) {
  Extras x;
  RepResult fwq_only;
  {
    // The same traced node without the offloading threads: the difference
    // in run time is the host cost of the offload path.
    const auto span = ctx.tracer->scope("fwq_only");
    fwq_only = des_node_run(ctx, false);
    ++x.reps;
    if (!fwq_only.error.empty()) x.errors.push_back("fwq_only: " + fwq_only.error);
  }
  x.layers.push_back({"offload.host_ns_per_syscall", "ns",
                      (traced.run_s - fwq_only.run_s) * 1e9 /
                          layer_value(traced, "offload.syscalls")});
  add_queue_layers(ctx, untraced, traced, x);
  return x;
}

RepResult des_cluster_rep(const RepCtx& ctx) {
  Tracer& tr = *ctx.tracer;
  constexpr int kNodes = 8;
  const noise::FwqConfig fwq{.work_quantum = kQuantum,
                             .iterations = ctx.quick ? 100u : 1'000u};
  RepResult r;
  std::unique_ptr<cluster::DesCluster> des;
  double build_s = 0.0;
  {
    const auto span = tr.scope("setup");
    const double t0 = now_s();
    const auto platform = hw::make_ofp_platform();
    const auto lcfg = linuxk::make_ofp_linux_config(platform);
    {
      const auto build = tr.scope("DesCluster");
      const double b0 = now_s();
      des = std::make_unique<cluster::DesCluster>(
          kNodes, platform, lcfg,
          cluster::DesCluster::Options{.seed = Seed{ctx.seed}});
      build_s = now_s() - b0;
    }
    r.setup_s = now_s() - t0;
  }

  sim::Simulator& sim = des->simulator();
  std::vector<std::vector<noise::FwqTrace>> per_node;
  StepLoop loop;
  const std::uint64_t events0 = sim.events_executed();
  {
    const auto span = tr.scope("run");
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    if (!ctx.traced) {
      per_node = des->run_fwq_all(fwq);
    } else {
      // DesCluster::run_fwq_all by hand: same spawn order, names, pinning.
      std::vector<const noise::FwqThread*> bodies;
      std::vector<std::size_t> first_body;
      {
        const auto spawn = tr.scope("spawn_fwq_threads");
        for (int n = 0; n < des->size(); ++n) {
          cluster::SimNode& node = des->node(n);
          first_body.push_back(bodies.size());
          for (const hw::CoreId core :
               node.topology().application_cores().to_vector()) {
            bodies.push_back(spawn_fwq(
                node.app_kernel(), node.topology(), core,
                "fwq-" + std::to_string(n) + "-" + std::to_string(core),
                fwq));
          }
        }
        first_body.push_back(bodies.size());
      }
      {
        const auto steps = tr.scope("step_loop");
        drive(sim, bodies, loop);
      }
      per_node.resize(static_cast<std::size_t>(des->size()));
      for (std::size_t n = 0; n < per_node.size(); ++n) {
        for (std::size_t b = first_body[n]; b < first_body[n + 1]; ++b) {
          per_node[n].push_back(bodies[b]->trace());
        }
      }
    }
    r.run_s = now_s() - t0;
    r.cpu_s = process_cpu_s() - c0;
  }
  r.work = static_cast<double>(sim.events_executed() - events0);

  const auto span = tr.scope("verify");
  Digest d;
  for (const auto& traces : per_node) {
    if (r.error.empty()) r.error = check_traces(traces, fwq.iterations, d);
  }
  r.digest = des_digest(d, sim);
  if (ctx.traced) {
    add_des_layers(loop, sim, r.layers);
    r.layers.push_back({"cluster.build_s", "s", build_s});
  }
  return r;
}

Extras des_cluster_extras(const RepCtx& ctx, const RepResult& untraced,
                          const RepResult& traced) {
  Extras x;
  add_queue_layers(ctx, untraced, traced, x);
  return x;
}

// ------------------------------------------------------- Fig. 4 --------

noise::AnalyticNoiseProfile fugaku_linux() {
  return noise::fugaku_linux_profile();
}

struct Campaign {
  const char* slug;  // bench_fig4_fwq_cdf's metric prefix
  noise::AnalyticNoiseProfile (*profile)();
  std::int64_t nodes;
  std::int64_t quick_nodes;
  int app_cores;
};

// The five Fig. 4 campaigns, as bench_fig4_fwq_cdf runs them.
constexpr std::array<Campaign, 5> kCampaigns = {{
    {"ofp_linux", noise::ofp_linux_profile, 1024, 64, 256},
    {"ofp_mckernel", noise::ofp_mckernel_profile, 1024, 64, 256},
    {"fugaku_linux_full", fugaku_linux, 158976, 512, 48},
    {"fugaku_linux_24racks", fugaku_linux, 9216, 256, 48},
    {"fugaku_mckernel_24racks", noise::fugaku_mckernel_profile, 9216, 256,
     48},
}};

cluster::FwqCampaignConfig campaign_config(const Campaign& c,
                                           const RepCtx& ctx) {
  cluster::FwqCampaignConfig cfg;
  cfg.nodes = ctx.quick ? c.quick_nodes : c.nodes;
  cfg.app_cores = c.app_cores;
  cfg.work_quantum = kQuantum;
  cfg.duration_per_core = SimTime::sec(ctx.quick ? 300 : 3600);
  cfg.max_materialized_hits = cfg.nodes > 20000 ? 256 : 2048;
  cfg.threads = ctx.threads;
  cfg.seed = Seed{ctx.seed};
  return cfg;
}

// Checks the campaign's invariants; returns the first violation or "".
std::string check_campaign(const cluster::FwqCampaignConfig& cfg,
                           const cluster::FwqCampaignResult& res) {
  const auto iters_per_core = static_cast<std::uint64_t>(
      cfg.duration_per_core.ratio(cfg.work_quantum));
  if (res.total_iterations != iters_per_core *
                                  static_cast<std::uint64_t>(cfg.nodes) *
                                  static_cast<std::uint64_t>(cfg.app_cores)) {
    return "campaign iteration count does not cover every core";
  }
  // The attribution identity: the per-source ledger sums to the noise rate.
  double stolen_us = 0.0;
  for (const auto& s : res.per_source) stolen_us += s.stolen_us;
  const double expect = res.stats.noise_rate * res.stats.t_min.to_us() *
                        static_cast<double>(res.total_iterations);
  if (!(std::abs(stolen_us - expect) <= 1e-9 * std::abs(expect))) {
    return "per-source stolen time does not reconcile with noise_rate";
  }
  return {};
}

JsonValue campaign_digest(const cluster::FwqCampaignResult& res) {
  Digest worst;
  for (const double w : res.worst_node_max_us) worst.add_double(w);
  Digest cdf;
  for (std::size_t i = 0; i < res.cdf.num_bins(); ++i) {
    cdf.add_u64(res.cdf.bin_count(i));
  }
  JsonValue j = JsonValue::object();
  j.set("noise_rate", res.stats.noise_rate);
  j.set("t_max_ns", res.stats.t_max.count_ns());
  j.set("total_iterations", res.total_iterations);
  j.set("worst100_hash", worst.hex());
  j.set("cdf_hash", cdf.hex());
  return j;
}

RepResult fig4_rep(const RepCtx& ctx) {
  Tracer& tr = *ctx.tracer;
  RepResult r;
  std::vector<std::pair<noise::AnalyticNoiseProfile, cluster::FwqCampaignConfig>>
      runs;
  {
    const auto span = tr.scope("setup");
    const double t0 = now_s();
    for (const Campaign& c : kCampaigns) {
      runs.emplace_back(c.profile(), campaign_config(c, ctx));
    }
    r.setup_s = now_s() - t0;
  }

  std::vector<cluster::FwqCampaignResult> results;
  {
    const auto span = tr.scope("run");
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string slug = kCampaigns[i].slug;
      const auto call = tr.scope("run_fwq_campaign:" + slug);
      const double w0 = now_s();
      results.push_back(cluster::run_fwq_campaign(runs[i].first, runs[i].second));
      if (ctx.traced) {
        r.layers.push_back({"campaign." + slug + ".wall_s", "s", now_s() - w0});
      }
      r.work += static_cast<double>(runs[i].second.nodes);
    }
    r.run_s = now_s() - t0;
    r.cpu_s = process_cpu_s() - c0;
  }

  const auto span = tr.scope("verify");
  r.digest = JsonValue::object();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (r.error.empty()) {
      r.error = check_campaign(runs[i].second, results[i]);
      if (!r.error.empty()) r.error = std::string(kCampaigns[i].slug) + ": " + r.error;
    }
    r.digest.set(kCampaigns[i].slug, campaign_digest(results[i]));
  }
  return r;
}

Extras fig4_extras(const RepCtx& ctx, const RepResult& untraced,
                   const RepResult& /*traced*/) {
  Extras x;
  RepCtx serial = ctx;
  serial.threads = 1;
  serial.traced = false;
  const RepResult one = run_variant("threads_1", serial, fig4_rep, untraced, x);
  x.layers.push_back({"campaign.speedup", "ratio", one.run_s / untraced.run_s});
  x.layers.push_back(
      {"parallel.utilization", "ratio",
       untraced.cpu_s / (untraced.run_s * static_cast<double>(ctx.threads))});

  // The analytic node sampler with the full-scale campaign's parameters.
  const auto span = ctx.tracer->scope("sampler_microbench");
  const Campaign& full = kCampaigns[2];
  const noise::AnalyticNoiseProfile profile = full.profile();
  const int builds = ctx.quick ? 2'000 : 20'000;
  std::size_t active = 0;
  const double b0 = now_s();
  for (int i = 0; i < builds; ++i) {
    noise::AnalyticNodeSampler s(profile, full.app_cores,
                                 RngStream(Seed{ctx.seed}, static_cast<std::uint64_t>(i)));
    active += s.active_sources().size();
  }
  const double build_ns = (now_s() - b0) * 1e9 / builds;
  const int draws = ctx.quick ? 100'000 : 2'000'000;
  noise::AnalyticNodeSampler s(profile, full.app_cores, RngStream(Seed{ctx.seed}, 0));
  std::int64_t sum_ns = 0;
  const double f0 = now_s();
  for (int i = 0; i < draws; ++i) {
    sum_ns += s.sample_floor_iteration(kQuantum).count_ns();
  }
  const double floor_ns = (now_s() - f0) * 1e9 / draws;
  if (active == 0 || sum_ns < static_cast<std::int64_t>(draws) * kQuantum.count_ns()) {
    x.errors.push_back("sampler microbenchmark drew impossible values");
  }
  x.layers.push_back({"noise.sampler.build_ns", "ns", build_ns});
  x.layers.push_back({"noise.sampler.floor_ns", "ns", floor_ns});
  return x;
}

// --------------------------------------------------- Figs. 5-7 --------

struct PlanRow {
  const char* app;
  std::vector<std::int64_t> nodes;
};
struct Figure {
  apps::PlatformKind platform;
  std::vector<PlanRow> rows;
};

// The (application, node count) points of bench_fig5/6/7.
const std::vector<Figure>& figures() {
  static const std::vector<Figure> figs = {
      {apps::PlatformKind::kOfp,
       {{"AMG2013", {16, 64, 256, 1024, 4096, 8192}},
        {"Milc", {16, 64, 256, 1024, 4096, 8192}},
        {"Lulesh", {16, 64, 256, 1024, 4096, 8192}}}},
      {apps::PlatformKind::kOfp,
       {{"LQCD", {256, 512, 1024, 2048}},
        {"GeoFEM", {512, 1024, 2048, 4096, 8192}},
        {"GAMERA", {512, 1024, 2048, 4096}}}},
      {apps::PlatformKind::kFugaku,
       {{"LQCD", {128, 512, 2048, 8192}},
        {"GeoFEM", {128, 512, 2048, 8192}},
        {"GAMERA", {128, 512, 2048, 8192}}}},
  };
  return figs;
}

struct PlanPoint {
  const cluster::OsEnvironment* linux_env;
  const cluster::OsEnvironment* mck_env;
  std::unique_ptr<cluster::Workload> workload;
  cluster::JobConfig job;
};

RepResult bsp_rep(const RepCtx& ctx) {
  Tracer& tr = *ctx.tracer;
  const int trials = ctx.quick ? 20 : 200;
  RepResult r;
  std::unique_ptr<cluster::OsEnvironment> envs[4];
  std::vector<PlanPoint> points;
  std::vector<double> make_workload_us;
  {
    const auto span = tr.scope("setup");
    const double t0 = now_s();
    {
      const auto make = tr.scope("make_envs");
      envs[0] = std::make_unique<cluster::OsEnvironment>(cluster::make_ofp_linux_env());
      envs[1] = std::make_unique<cluster::OsEnvironment>(cluster::make_ofp_mckernel_env());
      envs[2] = std::make_unique<cluster::OsEnvironment>(cluster::make_fugaku_linux_env());
      envs[3] = std::make_unique<cluster::OsEnvironment>(cluster::make_fugaku_mckernel_env());
    }
    const auto make = tr.scope("make_workloads");
    for (const Figure& fig : figures()) {
      const int e = fig.platform == apps::PlatformKind::kOfp ? 0 : 2;
      for (const PlanRow& row : fig.rows) {
        // --quick keeps the smallest node count of each row.
        const std::size_t count = ctx.quick ? 1 : row.nodes.size();
        for (std::size_t k = 0; k < count; ++k) {
          const double m0 = now_s();
          auto w = apps::make_workload(row.app, fig.platform);
          make_workload_us.push_back((now_s() - m0) * 1e6);
          points.push_back({envs[e].get(), envs[e + 1].get(), std::move(w),
                            apps::job_geometry(row.app, fig.platform,
                                               row.nodes[k])});
        }
      }
    }
    r.setup_s = now_s() - t0;
  }

  std::vector<cluster::RelativeResult> out(points.size());
  std::vector<double> run_us;
  std::vector<double> build_us;
  {
    const auto span = tr.scope("run");
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    if (!ctx.traced) {
      // bench::run_plan: points across the scheduler, trials nested.
      parallel_for(
          points.size(),
          [&](std::size_t i) {
            const PlanPoint& p = points[i];
            out[i] = cluster::relative_performance(
                *p.workload, *p.linux_env, *p.mck_env, p.job, trials,
                Seed{ctx.seed}, ctx.threads);
          },
          ctx.threads);
    } else {
      // relative_performance by hand, timing each BspEngine call into
      // index-addressed slots (the trials run on several host threads).
      const auto t = static_cast<std::size_t>(trials);
      run_us.assign(points.size() * t * 2, 0.0);
      build_us.assign(points.size() * t, 0.0);
      const auto loop = tr.scope("parallel_for(points)");
      parallel_for(
          points.size(),
          [&](std::size_t i) {
            const PlanPoint& p = points[i];
            std::vector<double> ratios(t, 0.0);
            parallel_for(
                t,
                [&](std::size_t k) {
                  const Seed s{ctx.seed + static_cast<std::uint64_t>(k) * 0x9E37ull};
                  const double e0 = now_s();
                  cluster::BspEngine base(*p.linux_env, p.job, s);
                  cluster::BspEngine cand(*p.mck_env, p.job, s);
                  const double e1 = now_s();
                  const cluster::RunResult b = base.run(*p.workload);
                  const double e2 = now_s();
                  const cluster::RunResult c = cand.run(*p.workload);
                  const double e3 = now_s();
                  ratios[k] = b.total.ratio(c.total);
                  build_us[i * t + k] = (e1 - e0) * 1e6 / 2.0;
                  run_us[(i * t + k) * 2] = (e2 - e1) * 1e6;
                  run_us[(i * t + k) * 2 + 1] = (e3 - e2) * 1e6;
                },
                ctx.threads);
            OnlineStats st;
            for (const double v : ratios) st.add(v);
            out[i] = {.mean_ratio = st.mean(), .stddev_ratio = st.stddev()};
          },
          ctx.threads);
    }
    r.run_s = now_s() - t0;
    r.cpu_s = process_cpu_s() - c0;
  }
  r.work = static_cast<double>(points.size()) * trials * 2;

  const auto span = tr.scope("verify");
  JsonValue rows = JsonValue::array();
  for (const cluster::RelativeResult& rel : out) {
    if (r.error.empty() && !(std::isfinite(rel.mean_ratio) &&
                             std::isfinite(rel.stddev_ratio) &&
                             rel.mean_ratio > 0.0)) {
      r.error = "a plan point produced a non-finite or non-positive ratio";
    }
    rows.push_back(JsonArray{rel.mean_ratio, rel.stddev_ratio});
  }
  r.digest = JsonValue::object();
  r.digest.set("points", std::move(rows));
  if (ctx.traced) {
    r.layers.push_back({"bsp.run_us.p50", "us", nth(run_us, 0.50)});
    r.layers.push_back({"bsp.run_us.p99", "us", nth(run_us, 0.99)});
    r.layers.push_back(
        {"bsp.run_us.count", "count", static_cast<double>(run_us.size())});
    r.layers.push_back({"bsp.engine_build_us", "us", mean(build_us)});
    r.layers.push_back({"apps.make_workload_us", "us", mean(make_workload_us)});
  }
  return r;
}

Extras bsp_extras(const RepCtx& ctx, const RepResult& untraced,
                  const RepResult& /*traced*/) {
  Extras x;
  RepCtx serial = ctx;
  serial.threads = 1;
  serial.traced = false;
  const RepResult one = run_variant("threads_1", serial, bsp_rep, untraced, x);
  x.layers.push_back({"bsp.speedup", "ratio", one.run_s / untraced.run_s});
  x.layers.push_back(
      {"parallel.utilization", "ratio",
       untraced.cpu_s / (untraced.run_s * static_cast<double>(ctx.threads))});

  // Machine-noise sampling at the largest Fig. 7 point.
  const auto span = ctx.tracer->scope("noise_sample_microbench");
  const Figure& fig = figures().back();
  const PlanRow& row = fig.rows.back();
  const std::int64_t nodes = row.nodes.back();
  const cluster::OsEnvironment env = cluster::make_fugaku_linux_env();
  const cluster::JobConfig job = apps::job_geometry(row.app, fig.platform, nodes);
  const SimTime window =
      apps::make_workload(row.app, fig.platform)->rank_work(0, job, env).compute;
  cluster::MachineNoiseSampler sampler(env.profile, job.nodes,
                                       job.ranks_per_node * job.threads_per_rank,
                                       RngStream(Seed{ctx.seed}, 0xB59));
  const int draws = ctx.quick ? 50'000 : 1'000'000;
  std::int64_t sum_ns = 0;
  const double t0 = now_s();
  for (int i = 0; i < draws; ++i) {
    sum_ns += sampler.sample_global_delay(window).count_ns();
  }
  const double ns = (now_s() - t0) * 1e9 / draws;
  if (sum_ns < 0) x.errors.push_back("machine noise sampler drew a negative delay");
  x.layers.push_back({"bsp.noise_sample_ns", "ns", ns});
  return x;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"des_node", "events_per_s", des_node_rep, des_node_extras},
      {"des_cluster", "events_per_s", des_cluster_rep, des_cluster_extras},
      {"fig4_campaign", "nodes_per_s", fig4_rep, fig4_extras},
      {"bsp_plans", "bsp_runs_per_s", bsp_rep, bsp_extras},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace scale
