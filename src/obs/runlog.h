// Append-only JSONL run ledger: the repo's memory across runs.
//
// A single run is already deeply observable (Registry, spans, series,
// host profile); this module records *that a run happened* so trends,
// regressions, and config-space comparisons become queryable after the
// fact. Each line of a ledger file is one self-contained JSON record:
//
//   {
//     "schema": "hpcos-run-ledger/1",
//     "target": "bench_fig4_fwq_cdf",        // bench / CLI name
//     "quick": true,
//     "seed": 2021,
//     "config_hash": "9a3f...16 hex",        // confighash of "config"
//     "config": { ... },                     // canonical config document
//     "metrics": [ {name, unit, value, percentiles?}, ... ],
//     "series": [ {name, digest, sum, count}, ... ],
//     "host": {                              // the non-deterministic part
//       "timestamp": "2026-08-08T12:00:00Z", // injected, never sampled here
//       "parallelism": 8,
//       "metrics": [ ...host.* metrics... ]  // incl. --profile scope times
//     }
//   }
//
// Determinism contract: everything OUTSIDE "host" is bit-identical across
// host thread counts for a fixed config (the tests' deterministic_line(),
// tests/test_support.h, is the witness; host.* metrics are routed into
// "host" by construction).
// The timestamp is *injected* by the caller (flag/env/clock at the edge),
// so record construction itself is a pure function — tests can pin whole
// lines.
//
// Appends are crash-safe at line granularity: one record is serialized to
// a single newline-terminated line and written with one write call in
// O_APPEND mode, so a torn write can only damage the final line — which
// the lenient reader skips and counts, never aborts on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"

namespace hpcos::obs {

class BenchReport;

inline constexpr const char* kRunLedgerSchema = "hpcos-run-ledger/1";

// Build a run record from a finished report. `config` defines the record's
// config_hash (confighash canonical digest); pass the real simulation
// config when the target attached one, or the bench identity fallback.
// `timestamp` is stored verbatim under "host" (empty allowed).
JsonValue make_run_record(const BenchReport& report, const JsonValue& config,
                          const std::string& timestamp);

// Schema validation. Returns "" when valid, else a one-line description.
// Unknown schema strings are invalid (the strict reader rejects them).
std::string validate_run_record(const JsonValue& record);

// The record as one canonical ledger line (no trailing newline). Throws
// when the record fails validate_run_record.
std::string run_record_line(const JsonValue& record);

// Append one record to the ledger at `path` (created if missing): a
// single newline-terminated write in append mode. Throws on I/O failure.
void append_run_record(const std::string& path, const JsonValue& record);

// Records in file order == append order (common/json JSON-lines reader).
using RunLedger = JsonLines;

// Read + parse a ledger file (validate_run_record per line). Strict mode
// throws on the first malformed line or unknown schema version ("run
// ledger line N: ..."; CI gates want hard failures) and on a missing
// file. Lenient mode skips and counts damaged or unknown-schema lines and
// never aborts (trend over a ledger with one torn tail line must still
// work); a missing file reads as an empty ledger.
RunLedger read_run_ledger(const std::string& path, bool strict = true);

}  // namespace hpcos::obs
