// The benchmark's three workloads (see perfbench/README.md for sizes and
// why each was chosen).
#pragma once

#include <cstdint>
#include <string>

#include "bench_util.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< required: BENCHMARK.json's run_seconds
  /// Traced run: per-layer metrics from replayed layer calls and spans
  /// instead of the end-to-end metrics.
  bool trace = false;
  /// Where the traced run writes its spans (empty: keep them in memory).
  std::string spans_path;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricList metrics;
  /// Untraced runs: the scaled host metrics as measured, and the probe time.
  MetricList as_measured;
};

/// Table-2 default draws, CA/BL/PL per sample as a closed loop.
[[nodiscard]] RunResult run_paper_mix(const RunOptions& options);
/// R_m forced to 0.3 on small extents, BL and IM per sample.
[[nodiscard]] RunResult run_impute_heavy(const RunOptions& options);
/// Open-loop Poisson serving with SPC scheduling and the cert cache on.
[[nodiscard]] RunResult run_serve_open(const RunOptions& options);

}  // namespace perfbench
