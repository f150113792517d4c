// perfbench — the isomer end-to-end benchmark program.
//
//   perfbench --workload paper-mix|impute-heavy|serve-open --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Runs one workload single-threaded for about S seconds of timed ops,
// checks every answer, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
// perfbench/README.md). An untraced run prints, on the line before, the
// host metrics as measured: {"as_measured": {...}}. A human-readable table
// goes to stderr. Exits 1 when an answer fails its check, 2 on bad
// arguments. All flags but --spans are required.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-mix|impute-heavy|serve-open --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_number(const std::string& text, const char* flag) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage((std::string("bad value for ") + flag).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_number(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_number(value, "--seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (options.seconds <= 0) usage("--seconds is required and must be > 0");
  if (!have_trace) usage("--trace is required");

  perfbench::RunResult result;
  try {
    if (options.workload == "paper-mix")
      result = perfbench::run_paper_mix(options);
    else if (options.workload == "impute-heavy")
      result = perfbench::run_impute_heavy(options);
    else if (options.workload == "serve-open")
      result = perfbench::run_serve_open(options);
    else
      usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr,
               "perfbench %s seed=%llu trace=%d: %llu ops, %llu failed\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0,
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  result.metrics.print_table(stderr);
  if (!options.trace) {
    std::fprintf(stderr, "as measured:\n");
    result.as_measured.print_table(stderr);
    std::printf("{\"as_measured\": %s}\n", result.as_measured.json().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.json().c_str());
  return result.correct ? 0 : 1;
}
