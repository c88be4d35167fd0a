// Canonical config serialization + stable config digests (DESIGN §8).
//
// Two halves of the contract:
//  * invariance — member insertion order and pure host-execution knobs
//    (threads) never change the hash;
//  * sensitivity — every semantic knob of the campaign config serializer
//    flips the hash when flipped.
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/config_json.h"
#include "cluster/fwq_campaign.h"
#include "common/confighash.h"
#include "common/json.h"
#include "test_support.h"

namespace hpcos {
namespace {

// ------------------------------------------------------ canonical form

TEST(CanonicalJson, SortsKeysAtEveryLevelAndDropsWhitespace) {
  JsonValue a = JsonValue::object();
  a.set("zeta", 1);
  JsonValue inner_a = JsonValue::object();
  inner_a.set("b", 2);
  inner_a.set("a", 3);
  a.set("alpha", std::move(inner_a));

  JsonValue b = JsonValue::object();
  JsonValue inner_b = JsonValue::object();
  inner_b.set("a", 3);
  inner_b.set("b", 2);
  b.set("alpha", std::move(inner_b));
  b.set("zeta", 1);

  EXPECT_EQ(canonical_json(a), canonical_json(b));
  EXPECT_EQ(canonical_json(a), R"({"alpha":{"a":3,"b":2},"zeta":1})");
}

TEST(CanonicalJson, NumbersAreShortestRoundTripForm) {
  JsonValue v = JsonValue::object();
  v.set("whole", 3.0);
  v.set("neg_zero", -0.0);
  v.set("tenth", 0.1);
  v.set("big", 9007199254740991.0);  // 2^53 - 1 stays integral
  EXPECT_EQ(canonical_json(v),
            R"({"big":9007199254740991,"neg_zero":0,"tenth":0.1,"whole":3})");

  // Shortest form must parse back to the identical double, including
  // values with no short decimal expansion.
  const double awkward = 1.0 / 3.0;
  JsonValue w = JsonValue::object();
  w.set("x", awkward);
  const std::string text = canonical_json(w);
  EXPECT_EQ(JsonValue::parse(text).at("x").as_number(), awkward);
  // And re-canonicalizing the parsed document is a fixed point.
  EXPECT_EQ(canonical_json(JsonValue::parse(text)), text);
}

TEST(CanonicalJson, RejectsNonFiniteNumbersLoudly) {
  JsonValue v = JsonValue::object();
  v.set("bad", std::nan(""));
  EXPECT_THROW((void)canonical_json(v), std::runtime_error);
  JsonValue inf = JsonValue::object();
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(HUGE_VAL));
  inf.set("nested", std::move(arr));
  EXPECT_THROW((void)canonical_json(inf), std::runtime_error);
}

// ------------------------------------------------------------ FNV-1a 64

TEST(Fnv1a64, MatchesReferenceVectorsAndChains) {
  EXPECT_EQ(fnv1a64(""), kFnv1a64Offset);
  // Reference vectors from the FNV specification.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Chaining state is equivalent to hashing the concatenation.
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
  EXPECT_EQ(to_hex64(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
  EXPECT_EQ(to_hex64(0x1ull), "0000000000000001");
}

// ------------------------------------------------- invariance contract

TEST(ConfigHash, HostExecutionKnobsNeverReachTheHash) {
  cluster::FwqCampaignConfig config;
  const std::string base = config_hash_hex(cluster::to_config_json(config));

  config.threads = 1;
  EXPECT_EQ(config_hash_hex(cluster::to_config_json(config)), base);
  config.threads = 8;
  EXPECT_EQ(config_hash_hex(cluster::to_config_json(config)), base);
}

TEST(ConfigHash, InvariantUnderMemberReordering) {
  const JsonValue doc =
      cluster::to_config_json(cluster::FwqCampaignConfig{});
  // Rebuild the document with members inserted in reverse order.
  JsonValue reversed = JsonValue::object();
  const auto& members = doc.members();
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reversed.set(it->first, it->second);
  }
  EXPECT_NE(doc.dump(), reversed.dump());  // insertion order differs...
  EXPECT_EQ(config_hash_hex(doc), config_hash_hex(reversed));  // ...hash not
}

TEST(ConfigHash, SchemaPrefixKeepsEqualBodiesApart) {
  // Same canonical body under different schema strings must not collide:
  // the prefix is part of the digest.
  JsonValue v = JsonValue::object();
  v.set("x", 1);
  EXPECT_NE(config_hash64(v), fnv1a64(canonical_json(v)));
}

// ------------------------------------------------ sensitivity contract

using FwqMutator = std::function<void(cluster::FwqCampaignConfig&)>;

TEST(ConfigHash, EverySemanticFwqKnobChangesTheHash) {
  const std::string base =
      config_hash_hex(cluster::to_config_json(cluster::FwqCampaignConfig{}));
  const std::vector<std::pair<const char*, FwqMutator>> knobs = {
      {"nodes", [](auto& c) { c.nodes += 1; }},
      {"app_cores", [](auto& c) { c.app_cores += 1; }},
      {"work_quantum", [](auto& c) { c.work_quantum = SimTime::from_ms(7); }},
      {"duration_per_core",
       [](auto& c) { c.duration_per_core = SimTime::sec(60); }},
      {"max_materialized_hits",
       [](auto& c) { c.max_materialized_hits += 1; }},
      {"nodes_per_shard", [](auto& c) { c.nodes_per_shard *= 2; }},
      {"timeline", [](auto& c) { c.timeline = !c.timeline; }},
      {"seed", [](auto& c) { c.seed = Seed{c.seed.value + 1}; }},
  };
  for (const auto& [name, mutate] : knobs) {
    cluster::FwqCampaignConfig mutated;
    mutate(mutated);
    EXPECT_NE(config_hash_hex(cluster::to_config_json(mutated)), base)
        << "knob \"" << name << "\" did not change the config hash";
  }
}

// ------------------------------------------------- knob-by-knob diffing

TEST(ConfigDiff, HashEqualIffEmptyDiff) {
  const JsonValue doc =
      cluster::to_config_json(cluster::FwqCampaignConfig{});
  // Same semantics, different insertion order: hashes collide, so the
  // diff must be empty — one direction of the invariant.
  JsonValue reversed = JsonValue::object();
  const auto& members = doc.members();
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reversed.set(it->first, it->second);
  }
  ASSERT_EQ(config_hash_hex(doc), config_hash_hex(reversed));
  EXPECT_TRUE(config_diff(doc, reversed).empty());

  // Other direction: any knob mutation that moves the hash must surface
  // at least one delta, and an empty diff must mean equal hashes.
  const std::vector<std::pair<const char*, FwqMutator>> knobs = {
      {"nodes", [](auto& c) { c.nodes += 1; }},
      {"work_quantum", [](auto& c) { c.work_quantum = SimTime::from_ms(7); }},
      {"timeline", [](auto& c) { c.timeline = !c.timeline; }},
      {"seed", [](auto& c) { c.seed = Seed{c.seed.value + 1}; }},
  };
  for (const auto& [name, mutate] : knobs) {
    cluster::FwqCampaignConfig mutated;
    mutate(mutated);
    const JsonValue other = cluster::to_config_json(mutated);
    const auto deltas = config_diff(doc, other);
    EXPECT_EQ(config_hash_hex(doc) == config_hash_hex(other),
              deltas.empty())
        << "hash/diff disagreement for knob \"" << name << "\"";
  }
}

TEST(ConfigDiff, NamesEachChangedFwqKnob) {
  const JsonValue base =
      cluster::to_config_json(cluster::FwqCampaignConfig{});
  const std::vector<std::pair<const char*, FwqMutator>> knobs = {
      {"nodes", [](auto& c) { c.nodes += 1; }},
      {"app_cores", [](auto& c) { c.app_cores += 1; }},
      {"work_quantum_ns",
       [](auto& c) { c.work_quantum = SimTime::from_ms(7); }},
      {"duration_per_core_ns",
       [](auto& c) { c.duration_per_core = SimTime::sec(60); }},
      {"timeline", [](auto& c) { c.timeline = !c.timeline; }},
      {"seed", [](auto& c) { c.seed = Seed{c.seed.value + 1}; }},
  };
  for (const auto& [path, mutate] : knobs) {
    cluster::FwqCampaignConfig mutated;
    mutate(mutated);
    const auto deltas =
        config_diff(base, cluster::to_config_json(mutated));
    ASSERT_EQ(deltas.size(), 1u)
        << "knob \"" << path << "\" should change exactly one leaf";
    EXPECT_EQ(deltas[0].kind, ConfigDeltaKind::kChanged);
    EXPECT_EQ(deltas[0].path, path);
    EXPECT_NE(deltas[0].base, deltas[0].current);
  }
}

TEST(ConfigDiff, CountermeasureTogglesNameTheirPath) {
  // A document of boolean toggles (Table 2's countermeasures): flipping
  // one names its path.
  const std::vector<const char*> toggles = {
      "bind_daemons", "bind_kworkers", "bind_blkmq", "stop_pmu_reads",
      "suppress_global_tlbi"};
  JsonValue base = JsonValue::object();
  base.set("schema", "countermeasures-fixture/1");
  for (const char* toggle : toggles) base.set(toggle, true);
  for (const char* path : toggles) {
    JsonValue cm = base;
    cm.set(path, false);
    const auto deltas = config_diff(base, cm);
    ASSERT_EQ(deltas.size(), 1u) << "toggle \"" << path << "\"";
    EXPECT_EQ(deltas[0].kind, ConfigDeltaKind::kChanged);
    EXPECT_EQ(deltas[0].path, path);
    // Bools render canonically, so the delta reads true/false verbatim.
    EXPECT_EQ(deltas[0].base, "true");
    EXPECT_EQ(deltas[0].current, "false");
  }
}

TEST(ConfigDiff, NestedProfilePathsUseArrayIndices) {
  // A noise-profile-shaped document: an array of source objects, each with
  // a nested duration object.
  const auto source = [](std::int64_t interval_ns, double sigma) {
    JsonValue duration = JsonValue::object();
    duration.set("median_ns", std::int64_t{10'000});
    duration.set("sigma", sigma);
    JsonValue s = JsonValue::object();
    s.set("mean_interval_ns", interval_ns);
    s.set("duration", std::move(duration));
    return s;
  };
  const auto profile = [&](std::int64_t interval0_ns, double sigma1) {
    JsonValue sources = JsonValue::array();
    sources.push_back(source(interval0_ns, 0.5));
    sources.push_back(source(1'000'000'000, sigma1));
    JsonValue v = JsonValue::object();
    v.set("name", "profile-fixture");
    v.set("sources", std::move(sources));
    return v;
  };
  const JsonValue base = profile(5'000'000, 0.6);

  auto deltas = config_diff(base, profile(10'000'000, 0.6));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].path, "sources[0].mean_interval_ns");

  // Two levels of nesting: the duration distribution inside a source.
  deltas = config_diff(base, profile(5'000'000, 0.725));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].path, "sources[1].duration.sigma");
}

TEST(ConfigDiff, ReportsAddedRemovedAndKindMismatches) {
  JsonValue base = JsonValue::object();
  base.set("kept", 1);
  base.set("dropped", 2);
  base.set("shape", 3);
  JsonValue arr_a = JsonValue::array();
  arr_a.push_back(JsonValue(1.0));
  arr_a.push_back(JsonValue(2.0));
  base.set("list", std::move(arr_a));

  JsonValue current = JsonValue::object();
  current.set("kept", 1);
  current.set("gained", 4);
  // Kind mismatch (number -> object) must report at "shape", not recurse.
  JsonValue inner = JsonValue::object();
  inner.set("x", 3);
  current.set("shape", std::move(inner));
  JsonValue arr_b = JsonValue::array();
  arr_b.push_back(JsonValue(1.0));
  current.set("list", std::move(arr_b));

  const auto deltas = config_diff(base, current);
  ASSERT_EQ(deltas.size(), 4u);
  // Walk order is canonical (sorted keys), so the sequence is stable.
  EXPECT_EQ(deltas[0].path, "dropped");
  EXPECT_EQ(deltas[0].kind, ConfigDeltaKind::kRemoved);
  EXPECT_EQ(deltas[0].base, "2");
  EXPECT_EQ(deltas[1].path, "gained");
  EXPECT_EQ(deltas[1].kind, ConfigDeltaKind::kAdded);
  EXPECT_EQ(deltas[1].current, "4");
  EXPECT_EQ(deltas[2].path, "list[1]");
  EXPECT_EQ(deltas[2].kind, ConfigDeltaKind::kRemoved);
  EXPECT_EQ(deltas[3].path, "shape");
  EXPECT_EQ(deltas[3].kind, ConfigDeltaKind::kChanged);
  EXPECT_EQ(deltas[3].base, "3");
  EXPECT_EQ(deltas[3].current, R"({"x":3})");
}

}  // namespace
}  // namespace hpcos
