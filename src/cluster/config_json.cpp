#include "cluster/config_json.h"

#include "net/fabric.h"
#include "net/rdma.h"

namespace hpcos::cluster {

namespace {

JsonValue ns_of(SimTime t) {
  return JsonValue(static_cast<std::int64_t>(t.count_ns()));
}

JsonValue to_json(const noise::DurationDist& d) {
  JsonValue v = JsonValue::object();
  v.set("median_ns", ns_of(d.median));
  v.set("sigma", d.sigma);
  v.set("min_ns", ns_of(d.min));
  v.set("max_ns", ns_of(d.max));
  return v;
}

const char* scope_name(noise::SourceScope s) {
  switch (s) {
    case noise::SourceScope::kPerCore: return "per-core";
    case noise::SourceScope::kPerNodeRandomCore: return "per-node-random-core";
    case noise::SourceScope::kAllCores: return "all-cores";
  }
  return "unknown";
}

}  // namespace

JsonValue to_config_json(const FwqCampaignConfig& config) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-fwq-campaign/1");
  v.set("nodes", static_cast<std::int64_t>(config.nodes));
  v.set("app_cores", config.app_cores);
  v.set("work_quantum_ns", ns_of(config.work_quantum));
  v.set("duration_per_core_ns", ns_of(config.duration_per_core));
  v.set("worst_nodes_to_keep", config.worst_nodes_to_keep);
  v.set("floor_samples_per_node", config.floor_samples_per_node);
  v.set("max_materialized_hits", config.max_materialized_hits);
  v.set("all_cores_jitter_sigma", config.all_cores_jitter_sigma);
  // nodes_per_shard fixes the summation order and the worst-heap merge —
  // semantic, unlike `threads`.
  v.set("nodes_per_shard", static_cast<std::int64_t>(config.nodes_per_shard));
  v.set("worst_heap_capacity", config.worst_heap_capacity);
  v.set("timeline", config.timeline);
  v.set("timeline_buckets",
        static_cast<std::uint64_t>(config.timeline_buckets));
  v.set("timeline_resolution_ns", ns_of(config.timeline_resolution));
  v.set("heatmap_rows", static_cast<std::uint64_t>(config.heatmap_rows));
  v.set("heatmap_cols", static_cast<std::uint64_t>(config.heatmap_cols));
  v.set("seed", config.seed.value);
  return v;
}

JsonValue to_config_json(const JobConfig& job) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-bsp-job/1");
  v.set("nodes", static_cast<std::int64_t>(job.nodes));
  v.set("ranks_per_node", job.ranks_per_node);
  v.set("threads_per_rank", job.threads_per_rank);
  return v;
}

JsonValue to_config_json(const noise::Countermeasures& cm) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-countermeasures/1");
  v.set("bind_daemons", cm.bind_daemons);
  v.set("bind_kworkers", cm.bind_kworkers);
  v.set("bind_blkmq", cm.bind_blkmq);
  v.set("stop_pmu_reads", cm.stop_pmu_reads);
  v.set("suppress_global_tlbi", cm.suppress_global_tlbi);
  return v;
}

JsonValue to_config_json(const MemEnvModel& mem) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-mem-env/1");
  v.set("base_page_bytes", hw::bytes(mem.base_page));
  v.set("large_page_bytes", hw::bytes(mem.large_page));
  v.set("large_page_coverage", mem.large_page_coverage);
  v.set("heap", mem.heap == os::HeapBehavior::kCached ? "cached"
                                                      : "release-to-os");
  v.set("fault_base_ns", ns_of(mem.fault_base));
  v.set("fault_large_ns", ns_of(mem.fault_large));
  v.set("churn_fixed_ns", ns_of(mem.churn_fixed));
  v.set("churn_per_mib_ns", ns_of(mem.churn_per_mib));
  v.set("churn_sigma", mem.churn_sigma);
  v.set("churn_max_factor", mem.churn_max_factor);
  v.set("os_overhead", mem.os_overhead);
  return v;
}

JsonValue to_config_json(const noise::AnalyticNoiseProfile& profile) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-noise-profile/1");
  v.set("name", profile.name);
  v.set("base_jitter_mean", profile.base_jitter_mean);
  v.set("base_jitter_sd", profile.base_jitter_sd);
  JsonValue sources = JsonValue::array();
  for (const noise::NoiseSourceSpec& s : profile.sources) {
    JsonValue spec = JsonValue::object();
    spec.set("name", s.name);
    spec.set("kind", noise::to_string(s.kind));
    spec.set("scope", scope_name(s.scope));
    spec.set("mean_interval_ns", ns_of(s.mean_interval));
    spec.set("duration", to_json(s.duration));
    spec.set("node_fraction", s.node_fraction);
    spec.set("instances", s.instances);
    sources.push_back(std::move(spec));
  }
  v.set("sources", std::move(sources));
  return v;
}

JsonValue to_config_json(const OsEnvironment& env) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-os-environment/1");
  v.set("name", env.name);
  v.set("os", to_string(env.os));
  v.set("profile", to_config_json(env.profile));
  v.set("mem", to_config_json(env.mem));
  JsonValue fabric = JsonValue::object();
  fabric.set("sw_overhead_ns", ns_of(env.fabric.sw_overhead));
  fabric.set("link_latency_ns", ns_of(env.fabric.link_latency));
  fabric.set("bandwidth_bytes_per_sec", env.fabric.bandwidth_bytes_per_sec);
  fabric.set("injection_overhead_ns", ns_of(env.fabric.injection_overhead));
  v.set("fabric", std::move(fabric));
  v.set("rdma_path", net::to_string(env.rdma_path));
  return v;
}

JsonValue bench_plan_config_json(const std::string& workload,
                                 const OsEnvironment& env,
                                 const JobConfig& job, Seed seed) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-bench-plan/1");
  v.set("workload", workload);
  v.set("environment", to_config_json(env));
  v.set("job", to_config_json(job));
  v.set("seed", seed.value);
  return v;
}

}  // namespace hpcos::cluster
