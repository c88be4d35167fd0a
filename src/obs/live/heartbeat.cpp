#include "obs/live/heartbeat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hpcos::obs::live {

namespace {

// Integer fields stop at 2^53: every such value is exact in a double and
// in range for the integer casts readers apply (fold_heartbeat, `live`).
constexpr double kMaxIntField = 9007199254740992.0;

bool is_uint_field(const JsonValue& v) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  return d >= 0.0 && d <= kMaxIntField && std::floor(d) == d;
}

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// 41345678 -> "41.3M": compact magnitudes for the one-line rendering.
std::string human_count(double v) {
  const char* suffix = "";
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "k";
  }
  return (*suffix ? fmt2(v) : fmt1(v)) + std::string(suffix);
}

std::string human_bytes(std::uint64_t bytes) {
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  if (mib >= 1024.0) return fmt2(mib / 1024.0) + "GiB";
  return fmt1(mib) + "MiB";
}

}  // namespace

JsonValue heartbeat_to_json(const Heartbeat& hb) {
  JsonValue rec = JsonValue::object();
  rec.set("schema", kHeartbeatSchema);
  rec.set("target", hb.target);
  rec.set("kind", hb.kind);
  rec.set("seq", hb.seq);
  rec.set("t_ms", hb.t_ms);
  rec.set("events", hb.events);
  rec.set("events_per_sec", hb.events_per_sec);
  rec.set("sim_time_us", hb.sim_time_us);
  rec.set("units_done", hb.units_done);
  rec.set("units_total", hb.units_total);
  rec.set("eta_s", hb.eta_s);
  JsonValue des = JsonValue::object();
  des.set("depth", static_cast<std::uint64_t>(hb.des_depth));
  des.set("max_depth", static_cast<std::uint64_t>(hb.des_max_depth));
  rec.set("des", std::move(des));
  JsonValue sched = JsonValue::object();
  sched.set("chunks", hb.sched_chunks);
  sched.set("steals", hb.sched_steals);
  sched.set("parks", hb.sched_parks);
  sched.set("max_depth", hb.sched_max_depth);
  rec.set("sched", std::move(sched));
  rec.set("rss_bytes", hb.rss_bytes);
  rec.set("peak_rss_bytes", hb.peak_rss_bytes);
  rec.set("stalls", hb.stalls);
  return rec;
}

std::string validate_heartbeat_record(const JsonValue& record) {
  if (!record.is_object()) return "heartbeat record must be a JSON object";
  const JsonValue* schema = record.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing string field \"schema\"";
  }
  if (schema->as_string() != kHeartbeatSchema) {
    return "unknown schema \"" + schema->as_string() + "\" (expected " +
           std::string(kHeartbeatSchema) + ")";
  }
  const JsonValue* target = record.find("target");
  if (target == nullptr || !target->is_string() ||
      target->as_string().empty()) {
    return "missing non-empty string field \"target\"";
  }
  const JsonValue* kind = record.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    return "missing string field \"kind\"";
  }
  const std::string& k = kind->as_string();
  if (k != "tick" && k != "stall" && k != "final") {
    return "field \"kind\" must be \"tick\", \"stall\", or \"final\" (got \"" +
           k + "\")";
  }
  for (const char* name : {"seq", "events", "units_done", "units_total",
                           "rss_bytes", "peak_rss_bytes", "stalls"}) {
    const JsonValue* v = record.find(name);
    if (v == nullptr) {
      return "missing integer field \"" + std::string(name) + "\"";
    }
    if (!is_uint_field(*v)) {
      return "field \"" + std::string(name) +
             "\" must be an integer in [0, 2^53]";
    }
  }
  for (const char* name : {"t_ms", "events_per_sec", "sim_time_us", "eta_s"}) {
    const JsonValue* v = record.find(name);
    if (v == nullptr || !v->is_number() || v->as_number() < 0.0) {
      return "missing non-negative number field \"" + std::string(name) + "\"";
    }
  }
  // Each section must carry every key heartbeat_to_json writes: readers
  // index them without checking.
  const std::pair<std::string, std::vector<std::string>> sections[] = {
      {"des", {"depth", "max_depth"}},
      {"sched", {"chunks", "steals", "parks", "max_depth"}}};
  for (const auto& [section, keys] : sections) {
    const JsonValue* sec = record.find(section);
    if (sec == nullptr || !sec->is_object()) {
      return "missing object field \"" + section + "\"";
    }
    for (const std::string& key : keys) {
      if (sec->find(key) == nullptr) {
        return "missing field \"" + section + "." + key + "\"";
      }
    }
    for (const auto& [key, value] : sec->members()) {
      if (!is_uint_field(value)) {
        return "field \"" + section + "." + key +
               "\" must be an integer in [0, 2^53]";
      }
    }
  }
  return "";
}

std::string heartbeat_line(const JsonValue& record) {
  const std::string err = validate_heartbeat_record(record);
  if (!err.empty()) {
    throw std::runtime_error("invalid heartbeat record: " + err);
  }
  return record.dump();
}

std::string heartbeat_ascii(const Heartbeat& hb) {
  std::ostringstream out;
  out << "[hb " << hb.target << "] ";
  if (hb.kind != "tick") out << hb.kind << " ";
  out << fmt1(hb.t_ms / 1000.0) << "s ev="
      << human_count(static_cast<double>(hb.events)) << " ("
      << human_count(hb.events_per_sec) << "/s) sim="
      << fmt2(hb.sim_time_us / 1e6) << "s";
  if (hb.units_total > 0) {
    out << " units " << hb.units_done << "/" << hb.units_total;
    if (hb.eta_s > 0.0) out << " eta " << fmt1(hb.eta_s) << "s";
  }
  out << " rss " << human_bytes(hb.rss_bytes);
  if (hb.stalls > 0) out << " stalls=" << hb.stalls;
  return out.str();
}

HeartbeatLog read_heartbeat_log(const std::string& path, bool strict) {
  return read_json_lines(path, validate_heartbeat_record, strict,
                         "heartbeat", "heartbeat log");
}

void fold_heartbeat(HeartbeatAggregates& agg, const JsonValue& record) {
  ++agg.records;
  if (record.at("kind").as_string() == "tick") ++agg.ticks;
  agg.stalls = std::max(
      agg.stalls, static_cast<std::uint64_t>(record.at("stalls").as_number()));
  // Cumulative fields: the stream's last word wins.
  agg.events_total =
      static_cast<std::uint64_t>(record.at("events").as_number());
  agg.elapsed_s = std::max(agg.elapsed_s, record.at("t_ms").as_number() / 1e3);
  agg.events_per_sec_max = std::max(agg.events_per_sec_max,
                                    record.at("events_per_sec").as_number());
  agg.units_done =
      static_cast<std::uint64_t>(record.at("units_done").as_number());
  agg.units_total =
      static_cast<std::uint64_t>(record.at("units_total").as_number());
  agg.peak_rss_bytes = std::max(
      agg.peak_rss_bytes,
      static_cast<std::uint64_t>(record.at("peak_rss_bytes").as_number()));
  if (agg.elapsed_s > 0.0) {
    agg.events_per_sec_mean =
        static_cast<double>(agg.events_total) / agg.elapsed_s;
  }
}

HeartbeatAggregates aggregate_heartbeats(
    const std::vector<JsonValue>& records) {
  HeartbeatAggregates agg;
  for (const JsonValue& rec : records) fold_heartbeat(agg, rec);
  return agg;
}

}  // namespace hpcos::obs::live
