// Append-only JSONL run ledger (obs/runlog): record construction, the
// host/deterministic split, crash-safe appends, and both parser modes.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/confighash.h"
#include "common/json.h"
#include "obs/bench_report.h"
#include "obs/prof/prof.h"
#include "obs/runlog.h"
#include "test_support.h"

namespace hpcos {
namespace {

JsonValue test_config() {
  JsonValue config = JsonValue::object();
  config.set("schema", "hpcos-config-test/1");
  config.set("knob", 42);
  return config;
}

obs::BenchReport test_report() {
  obs::BenchReport report("runlog_bench", /*quick=*/true, /*seed=*/7);
  report.add_metric("fwq.noise_rate", "ratio", 0.003);
  report.add_metric(obs::BenchMetric{.name = "fwq.p99_ms",
                                     .unit = "ms",
                                     .value = 6.5,
                                     .percentiles = {{"p50", 6.5},
                                                     {"p99", 6.9}}});
  report.add_metric("host.wall_s", "s", 1.25);
  return report;
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// --------------------------------------------------- record construction

TEST(RunLedger, RecordValidatesAndRoutesHostMetricsIntoHostSection) {
  const auto report = test_report();
  const JsonValue record = obs::make_run_record(
      report, test_config(), "2026-08-08T12:00:00Z");
  EXPECT_EQ(obs::validate_run_record(record), "");
  EXPECT_EQ(record.at("schema").as_string(), obs::kRunLedgerSchema);
  EXPECT_EQ(record.at("target").as_string(), "runlog_bench");
  EXPECT_EQ(record.at("config_hash").as_string(),
            config_hash_hex(test_config()));

  // host.* metrics must not reach the deterministic metrics array.
  for (const JsonValue& m : record.at("metrics").as_array()) {
    EXPECT_NE(m.at("name").as_string().rfind("host.", 0), 0u);
  }
  EXPECT_EQ(record.at("metrics").as_array().size(), 2u);
  const JsonValue& host = record.at("host");
  EXPECT_EQ(host.at("timestamp").as_string(), "2026-08-08T12:00:00Z");
  ASSERT_TRUE(host.contains("metrics"));
  ASSERT_EQ(host.at("metrics").as_array().size(), 1u);
  EXPECT_EQ(host.at("metrics").as_array()[0].at("name").as_string(),
            "host.wall_s");
}

TEST(RunLedger, DeterministicLineIgnoresEverythingUnderHost) {
  const auto report = test_report();
  const JsonValue a = obs::make_run_record(report, test_config(),
                                           "2026-08-08T12:00:00Z");
  const JsonValue b = obs::make_run_record(report, test_config(),
                                           "1999-01-01T00:00:00Z");
  EXPECT_NE(obs::run_record_line(a), obs::run_record_line(b));
  EXPECT_EQ(obs::deterministic_line(a), obs::deterministic_line(b));
  EXPECT_EQ(obs::deterministic_digest_hex(a),
            obs::deterministic_digest_hex(b));
  // The deterministic line is canonical: key order is sorted, so it is
  // parseable and host-free.
  const JsonValue stripped = JsonValue::parse(obs::deterministic_line(a));
  EXPECT_FALSE(stripped.contains("host"));
  EXPECT_TRUE(stripped.contains("config_hash"));
}

// -------------------------------------------------------- parser modes

TEST(RunLedger, StrictParserRejectsUnknownSchemaLenientSkips) {
  const JsonValue record = obs::make_run_record(
      test_report(), test_config(), "2026-08-08T12:00:00Z");
  JsonValue future = record;
  future.set("schema", "hpcos-run-ledger/999");
  const std::string text =
      obs::run_record_line(record) + "\n" + future.dump() + "\n";

  EXPECT_THROW((void)parse_json_lines(text, obs::validate_run_record,
                                      /*strict=*/true, "run ledger"),
               std::runtime_error);
  try {
    (void)parse_json_lines(text, obs::validate_run_record, /*strict=*/true,
                           "run ledger");
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("unknown schema"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }

  const obs::RunLedger lenient = parse_json_lines(
      text, obs::validate_run_record, /*strict=*/false, "run ledger");
  EXPECT_EQ(lenient.records.size(), 1u);
  EXPECT_EQ(lenient.skipped, 1u);
}

TEST(RunLedger, DeeplyNestedLineIsAnErrorNotAStackOverflow) {
  // One corrupt line of a million '[' must fail the parse at the nesting
  // cap, with its position, instead of recursing off the stack.
  const std::string deep(1'000'000, '[');
  try {
    (void)JsonValue::parse(deep);
    FAIL() << "a million '[' parsed";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
    EXPECT_LT(e.offset, 1000u);
  }

  const std::string good = obs::run_record_line(obs::make_run_record(
      test_report(), test_config(), "2026-08-08T12:00:00Z"));
  const std::string text = good + "\n" + deep + "\n" + good + "\n";
  try {
    (void)parse_json_lines(text, obs::validate_run_record, /*strict=*/true,
                           "run ledger");
    FAIL() << "strict ledger reader accepted the deep line";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  const obs::RunLedger lenient = parse_json_lines(
      text, obs::validate_run_record, /*strict=*/false, "run ledger");
  EXPECT_EQ(lenient.records.size(), 2u);
  EXPECT_EQ(lenient.skipped, 1u);
}

TEST(RunLedger, RunRecordLineRefusesInvalidRecords) {
  JsonValue bad = obs::make_run_record(test_report(), test_config(),
                                       "2026-08-08T12:00:00Z");
  bad.set("config_hash", "not-hex");
  EXPECT_THROW((void)obs::run_record_line(bad), std::runtime_error);
}

// --------------------------------------------------- append + recovery

TEST(RunLedger, AppendAccumulatesAndLenientReaderSkipsTornTail) {
  TempFile file("test_runlog_append.ledger.jsonl");
  const JsonValue record = obs::make_run_record(
      test_report(), test_config(), "2026-08-08T12:00:00Z");
  obs::append_run_record(file.path, record);
  obs::append_run_record(file.path, record);

  obs::RunLedger ledger = obs::read_run_ledger(file.path, /*strict=*/true);
  EXPECT_EQ(ledger.records.size(), 2u);
  EXPECT_EQ(ledger.skipped, 0u);

  // Simulate a crash mid-append: a torn, newline-less final line. The
  // lenient reader must skip-and-count it, never abort; strict must
  // throw.
  {
    std::ofstream out(file.path, std::ios::app);
    out << R"({"schema": "hpcos-run-ledg)";
  }
  ledger = obs::read_run_ledger(file.path, /*strict=*/false);
  EXPECT_EQ(ledger.records.size(), 2u);
  EXPECT_EQ(ledger.skipped, 1u);
  EXPECT_THROW((void)obs::read_run_ledger(file.path, /*strict=*/true),
               std::runtime_error);

  // A later append after the torn line starts cleanly on... the same
  // line (no newline was written), which is exactly the crash model:
  // only that one line is lost, the new record after it survives once a
  // newline separates them. Verify the undamaged prefix still parses.
  const obs::RunLedger prefix =
      obs::read_run_ledger(file.path, /*strict=*/false);
  EXPECT_EQ(prefix.records.size(), 2u);
}

TEST(RunLedger, HeartbeatLineInLedgerIsRejectedWithSpecificError) {
  // The two JSONL streams must not mix: a heartbeat record in a run
  // ledger (e.g. --progress-file pointed at the ledger path) is a hard,
  // line-numbered, specifically-worded strict error; the lenient reader
  // skips-and-counts it like any other damaged line.
  TempFile file("test_runlog_hb_mix.ledger.jsonl");
  auto report = test_report();
  obs::append_run_record(
      file.path, obs::make_run_record(report, test_config(),
                                      "2026-08-08T00:00:00Z"));
  {
    std::ofstream out(file.path, std::ios::app);
    out << R"({"schema":"hpcos-heartbeat/1","target":"x","kind":"tick"})"
        << "\n";
  }
  try {
    (void)obs::read_run_ledger(file.path, /*strict=*/true);
    FAIL() << "strict parser accepted a heartbeat line";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run ledger line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("hpcos-heartbeat/1"), std::string::npos) << what;
    EXPECT_NE(what.find("*.heartbeat.jsonl"), std::string::npos) << what;
  }
  const obs::RunLedger lenient =
      obs::read_run_ledger(file.path, /*strict=*/false);
  EXPECT_EQ(lenient.records.size(), 1u);
  EXPECT_EQ(lenient.skipped, 1u);
}

TEST(RunLedger, LenientReaderSkipsEveryDamagedLineKindInOneFile) {
  // One file, every damage class at once: two torn (truncated-JSON)
  // lines at different positions plus two interleaved heartbeat lines
  // between valid records. The lenient reader must keep every valid
  // record and count exactly the four damaged lines — per-line recovery,
  // not give-up-at-first-error.
  TempFile file("test_runlog_multidamage.ledger.jsonl");
  const JsonValue record = obs::make_run_record(
      test_report(), test_config(), "2026-08-08T12:00:00Z");
  const std::string good = obs::run_record_line(record);
  const std::string heartbeat =
      R"({"schema":"hpcos-heartbeat/1","target":"x","kind":"tick"})";
  {
    std::ofstream out(file.path);
    out << good << "\n"
        << R"({"schema":"hpcos-run-ledg)" << "\n"   // torn line 2
        << good << "\n"
        << heartbeat << "\n"                        // heartbeat line 4
        << good << "\n"
        << heartbeat << "\n"                        // heartbeat line 6
        << R"({"target":"half","metri)" << "\n"     // torn line 7
        << good << "\n";
  }
  const obs::RunLedger ledger =
      obs::read_run_ledger(file.path, /*strict=*/false);
  EXPECT_EQ(ledger.records.size(), 4u);
  EXPECT_EQ(ledger.skipped, 4u);
  for (const JsonValue& r : ledger.records) {
    EXPECT_EQ(r.at("target").as_string(), "runlog_bench");
  }
}

TEST(RunLedger, StrictParserNamesTheFirstDamagedLineNumber) {
  // Same mixed file shape, strict mode: the error must carry the 1-based
  // line number of the FIRST damaged line so the operator can fix the
  // file by line address, and an error deeper in the file must name that
  // deeper line (valid prefix already consumed).
  const JsonValue record = obs::make_run_record(
      test_report(), test_config(), "2026-08-08T12:00:00Z");
  const std::string good = obs::run_record_line(record);

  const std::string torn_at_3 =
      good + "\n" + good + "\n" + R"({"schema":"hpcos-run-le)" + "\n";
  try {
    (void)parse_json_lines(torn_at_3, obs::validate_run_record,
                           /*strict=*/true, "run ledger");
    FAIL() << "strict parser accepted a torn line";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("run ledger line 3"),
              std::string::npos)
        << e.what();
  }

  // Blank lines are permitted separators and must not shift the count:
  // the damaged line is physically line 4 here.
  const std::string with_blank =
      good + "\n\n" + good + "\n" + R"(not json at all)" + "\n";
  try {
    (void)parse_json_lines(with_blank, obs::validate_run_record,
                           /*strict=*/true, "run ledger");
    FAIL() << "strict parser accepted a non-JSON line";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("run ledger line 4"),
              std::string::npos)
        << e.what();
  }

  // Whitespace-only lines are blank as well, in strict mode too.
  const obs::RunLedger spaced =
      parse_json_lines(good + "\n \t\r\n" + good + "\n",
                       obs::validate_run_record, /*strict=*/true,
                       "run ledger");
  EXPECT_EQ(spaced.records.size(), 2u);
  EXPECT_EQ(spaced.skipped, 0u);
}

TEST(RunLedger, MissingFileIsEmptyInLenientModeErrorInStrict) {
  EXPECT_THROW(
      (void)obs::read_run_ledger("no_such_ledger.jsonl", /*strict=*/true),
      std::runtime_error);
  const obs::RunLedger ledger =
      obs::read_run_ledger("no_such_ledger.jsonl", /*strict=*/false);
  EXPECT_TRUE(ledger.records.empty());
  EXPECT_EQ(ledger.skipped, 0u);
}

// ------------------------------------------------- harness integration

TEST(RunLedger, MaybeWriteReportAppendsWithInjectedTimestamp) {
  TempFile file("test_runlog_harness.ledger.jsonl");
  obs::BenchOptions opts;
  opts.quick = true;
  opts.sinks.ledger_path = file.path;
  ::setenv("HPCOS_RUN_TIMESTAMP", "2026-08-08T00:00:00Z", 1);
  auto report = test_report();
  obs::maybe_write_report(report, opts);
  auto report2 = test_report();
  obs::maybe_write_report(report2, opts);
  ::unsetenv("HPCOS_RUN_TIMESTAMP");

  const obs::RunLedger ledger =
      obs::read_run_ledger(file.path, /*strict=*/true);
  ASSERT_EQ(ledger.records.size(), 2u);
  const JsonValue& r = ledger.records[0];
  EXPECT_EQ(r.at("target").as_string(), "runlog_bench");
  EXPECT_EQ(r.at("host").at("timestamp").as_string(),
            "2026-08-08T00:00:00Z");
  // No config attached: the bench-identity fallback keys the record.
  EXPECT_EQ(r.at("config").at("schema").as_string(),
            "hpcos-config-bench-identity/1");
  // Two identical runs land in the same group: same hash, same
  // deterministic line.
  EXPECT_EQ(r.at("config_hash").as_string(),
            ledger.records[1].at("config_hash").as_string());
  EXPECT_EQ(obs::deterministic_line(r),
            obs::deterministic_line(ledger.records[1]));
}

TEST(RunLedger, ProfiledRunCarriesItsProfileOnce) {
  // A --profile run's scopes reach the ledger once: as the report's
  // host.prof.* metrics, not again as a separate host summary.
  TempFile file("test_runlog_profiled.ledger.jsonl");
  obs::BenchOptions opts;
  opts.quick = true;
  opts.sinks.profile = true;
  opts.sinks.ledger_path = file.path;
  obs::prof::reset();
  obs::prof::set_enabled(true);
  { PROF_SCOPE("t.runlog.scope"); }
  obs::prof::set_enabled(false);
  auto report = test_report();
  obs::maybe_write_report(report, opts);
  obs::prof::reset();

  const obs::RunLedger ledger =
      obs::read_run_ledger(file.path, /*strict=*/true);
  ASSERT_EQ(ledger.records.size(), 1u);
  const JsonValue& host = ledger.records[0].at("host");
  EXPECT_FALSE(host.contains("profile"));
  std::size_t self_entries = 0;
  for (const JsonValue& m : host.at("metrics").as_array()) {
    if (m.at("name").as_string() == "host.prof.t.runlog.scope.self_us") {
      ++self_entries;
    }
  }
  EXPECT_EQ(self_entries, 1u);
}

TEST(RunLedgerDeathTest, UnwritableSinkExitsWithTheIoCode) {
  // An unwritable --json or --ledger path is an I/O error: one line on
  // stderr and exit 2, never an uncaught exception.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  obs::BenchOptions json_opts;
  json_opts.sinks.json_path = "no_such_dir/report.json";
  EXPECT_EXIT(
      {
        auto report = test_report();
        obs::maybe_write_report(report, json_opts);
      },
      ::testing::ExitedWithCode(2), "runlog_bench: .*no_such_dir");
  obs::BenchOptions ledger_opts;
  ledger_opts.sinks.ledger_path = "no_such_dir/run.ledger.jsonl";
  EXPECT_EXIT(
      {
        auto report = test_report();
        obs::maybe_write_report(report, ledger_opts);
      },
      ::testing::ExitedWithCode(2), "runlog_bench: .*no_such_dir");
}

}  // namespace
}  // namespace hpcos
