#include "cluster/config_json.h"

namespace hpcos::cluster {

namespace {

JsonValue ns_of(SimTime t) {
  return JsonValue(static_cast<std::int64_t>(t.count_ns()));
}

}  // namespace

JsonValue to_config_json(const FwqCampaignConfig& config) {
  JsonValue v = JsonValue::object();
  v.set("schema", "hpcos-config-fwq-campaign/2");
  v.set("nodes", static_cast<std::int64_t>(config.nodes));
  v.set("app_cores", config.app_cores);
  v.set("work_quantum_ns", ns_of(config.work_quantum));
  v.set("duration_per_core_ns", ns_of(config.duration_per_core));
  v.set("max_materialized_hits", config.max_materialized_hits);
  // nodes_per_shard fixes the summation order and the worst-heap merge —
  // semantic, unlike `threads`.
  v.set("nodes_per_shard", static_cast<std::int64_t>(config.nodes_per_shard));
  v.set("timeline", config.timeline);
  v.set("seed", config.seed.value);
  return v;
}

}  // namespace hpcos::cluster
