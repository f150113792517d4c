// Outside-in layer timing: replays the public layer calls one strategy
// execution makes, on the same inputs, each under its own span.
//
// execute_strategy runs these calls inside the simulator's event loop, out
// of reach of a benchmark that may not change the library. Calling them
// again beside the execution gives each layer's host time; what the
// execution spends beyond them (simulator dispatch, operator plumbing,
// trace records) is the residual.
#pragma once

#include <cstdint>

#include "bench_util.hpp"
#include "isomer/core/strategy.hpp"

namespace perfbench {

/// Work counts the replayed calls report.
struct ReplayCounts {
  std::uint64_t check_tasks = 0;  ///< CheckPlan::task_count, cascades too
  std::uint64_t rows = 0;         ///< LocalExecution rows shipped
  std::uint64_t considered = 0;   ///< LocalExecution candidates evaluated
};

/// Replays the layer calls of one `kind` execution of `query`, recording
/// spans "store.local_scan", "core.plan_checks", "core.run_checks",
/// "core.certify" (localized kinds) or "federation.materialize",
/// "query.evaluate_global" (CA) under `parent`. For IM, `impute` is the
/// model the execution consulted: first-round tasks whose atom clears
/// `threshold` are stripped before run_checks, as the IM filter does; the
/// decisions themselves are recomputed outside any span.
void replay_layers(isomer::StrategyKind kind,
                   const isomer::Federation& federation,
                   const isomer::GlobalQuery& query,
                   const isomer::ImputeOracle* impute, double threshold,
                   SpanLog& log, std::size_t parent, std::uint64_t op,
                   ReplayCounts& counts);

}  // namespace perfbench
