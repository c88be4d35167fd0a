// Canonical config serialization and stable 64-bit config digests.
//
// Cross-run observability (the run ledger, obs/runlog) and the planned
// campaign-as-a-service memoization both need one property: two configs
// that mean the same thing must map to the same key, and any semantically
// meaningful knob change must change the key. This module supplies the
// contract (DESIGN §8):
//
//   * canonical_json() — a normal form for JsonValue documents: object
//     keys sorted bytewise at every level, no insignificant whitespace,
//     numbers in shortest round-trip form with -0 normalized to 0
//     (json_format_number), NaN/Inf rejected with an error. Member
//     insertion order therefore never affects the output bytes.
//   * config_hash64() / config_hash_hex() — FNV-1a 64-bit digest over
//     "hpcos-confighash/1\n" + canonical_json(config). The schema prefix
//     versions the canonicalization itself: if the normal form ever has
//     to change, the prefix changes with it and old hashes cannot
//     collide with new ones silently.
//
// What goes *into* the hashed document is the caller's half of the
// contract: serialize every knob that can change a simulated result
// (seeds, shard boundaries, durations, model parameters) and exclude
// pure host-execution knobs (host thread counts) —
// results are bit-identical across those by the determinism contract
// (DESIGN §6), so they must not fragment the key space. The config
// serializers in cluster/config_json.h follow this rule and are the
// tested reference.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace hpcos {

inline constexpr const char* kConfigHashSchema = "hpcos-confighash/1";

// Canonical normal form of `value` (see above). Throws std::runtime_error
// on non-finite numbers anywhere in the document.
std::string canonical_json(const JsonValue& value);

// FNV-1a 64-bit over `bytes`, optionally chained from a prior state.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ull;
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t state = kFnv1a64Offset);

// 16-character lowercase hex of a 64-bit digest.
std::string to_hex64(std::uint64_t value);

// Digest of kConfigHashSchema + '\n' + canonical_json(config).
std::uint64_t config_hash64(const JsonValue& config);
std::string config_hash_hex(const JsonValue& config);

// ------------------------------------------------------------------------
// Knob-by-knob diff over the canonical normal form.
//
// The hash answers "same experiment or not?"; the diff answers *which*
// knob made two configs different experiments. The walk follows the same
// normal form the hash digests — object keys visited in bytewise-sorted
// order, leaves compared by canonical bytes — so the two are consistent
// by construction: config_hash64(a) == config_hash64(b) if and only if
// config_diff(a, b) is empty (the tested invariant).

enum class ConfigDeltaKind : std::uint8_t {
  kChanged,  // leaf present on both sides with different canonical bytes
  kAdded,    // path present only in `current`
  kRemoved,  // path present only in `base`
};

struct ConfigDelta {
  ConfigDeltaKind kind = ConfigDeltaKind::kChanged;
  // Dotted path from the document root; array elements as "sources[2]".
  std::string path;
  std::string base;     // canonical rendering; "" for kAdded
  std::string current;  // canonical rendering; "" for kRemoved
};

// Walk both documents and report every differing leaf, in canonical
// (sorted-key, index-order) walk order. A kind mismatch (object vs
// number, say) or an array-length mismatch reports at the narrowest
// common path rather than descending further.
std::vector<ConfigDelta> config_diff(const JsonValue& base,
                                     const JsonValue& current);

}  // namespace hpcos
