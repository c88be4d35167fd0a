// Smoke harness for the machine-readable bench output (EXPERIMENTS.md,
// "Observability").
//
// Usage: bench_smoke <bench-binary> <output.json> [extra-args...]
//
// Runs `<bench-binary> --quick --json <output.json> [extra-args...]`,
// then re-reads the file and schema-validates it: required keys present,
// schema string matches, metrics non-empty, every value finite (the JSON
// writer refuses NaN/Inf outright; the validator re-checks parsed
// values). Extra arguments pass through verbatim — the trend_smoke job
// uses this to hand the tool its `--ledger <fixture>` input. Exit 0 only
// when the bench ran, wrote the file, and the document validates — this
// is what the per-bench `bench_smoke.*` ctest jobs execute.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/bench_report.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr
        << "usage: bench_smoke <bench-binary> <output.json> [extra-args...]\n";
    return 2;
  }
  const std::string binary = argv[1];
  const std::string json_path = argv[2];

  // Stale output must not mask a bench that silently stopped writing.
  std::remove(json_path.c_str());

  std::string cmd = binary + " --quick --json " + json_path;
  for (int i = 3; i < argc; ++i) {
    cmd += ' ';
    cmd += argv[i];
  }
  std::cout << "[bench_smoke] running: " << cmd << "\n" << std::flush;
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::cerr << "[bench_smoke] FAIL: bench ";
    if (WIFSIGNALED(rc)) {
      std::cerr << "killed by signal " << WTERMSIG(rc) << "\n";
    } else {
      std::cerr << "exited with code " << WEXITSTATUS(rc) << "\n";
    }
    return 1;
  }

  std::ifstream in(json_path);
  if (!in) {
    std::cerr << "[bench_smoke] FAIL: bench did not write " << json_path
              << "\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  hpcos::JsonValue doc;
  try {
    doc = hpcos::JsonValue::parse(text.str());
  } catch (const std::exception& e) {
    std::cerr << "[bench_smoke] FAIL: invalid JSON in " << json_path << ": "
              << e.what() << "\n";
    return 1;
  }
  const std::string violation = hpcos::obs::validate_bench_report(doc);
  if (!violation.empty()) {
    std::cerr << "[bench_smoke] FAIL: " << violation << "\n";
    return 1;
  }
  std::cout << "[bench_smoke] OK: " << json_path << " ("
            << doc.at("metrics").as_array().size() << " metrics)\n";
  return 0;
}
