// Canonical JSON serializer for the FWQ campaign config (DESIGN §8).
//
// It produces the document that common/confighash.h digests into the
// cross-run memoization key: the run ledger (obs/runlog) groups records by
// config hash, tools/trend compares runs within a group, and the planned
// campaign server will use the same key for exact result caching.
//
// The serialization contract:
//   * every knob that can change a simulated number is included — seeds,
//     durations, shard boundaries (they fix the floating-point summation
//     order), the hit cap, the timeline switch;
//   * the one pure host-execution knob is excluded — `threads` (results
//     are bit-identical across host thread counts, DESIGN §6) never
//     appears, so the same experiment run on different hosts lands in the
//     same group;
//   * times serialize as integer nanoseconds (exact), and the document
//     carries a `schema` member so a field rename is a visible schema
//     bump, not a silent rehash.
//
// tests/test_confighash.cpp pins both halves: hashes are invariant across
// `threads` and member order, and flipping any semantic knob changes them.
#pragma once

#include "cluster/fwq_campaign.h"
#include "common/json.h"

namespace hpcos::cluster {

// FWQ campaign knobs (schema "hpcos-config-fwq-campaign/2"); `threads` is
// deliberately absent.
JsonValue to_config_json(const FwqCampaignConfig& config);

}  // namespace hpcos::cluster
