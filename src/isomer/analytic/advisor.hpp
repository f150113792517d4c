// Strategy advisor.
//
// The analytic model (model.hpp) prices strategies from Table-2 *parameter
// samples*; real deployments have a federation and a query, not parameters.
// The advisor bridges the gap the way a query optimizer would: exact
// catalog quantities (extent sizes, stored object widths, projection
// widths) are computed from the schemas, and data-dependent quantities
// (local selectivity, unsolved rates, assistant fan-out, navigation
// footprint) are estimated by evaluating the query on a small random sample
// of each database's root extent. The resulting per-strategy cost estimates
// use the same Table-1 arithmetic as the simulator.
//
// The advisor never moves simulated time — it is a planning-time tool; its
// own (real) cost is O(sample_size) evaluations per database.
#pragma once

#include <string>
#include <vector>

#include "isomer/core/strategy.hpp"

namespace isomer {

struct AdvisorOptions {
  CostParams costs{};
  /// Root objects sampled per database (capped by the extent size).
  std::size_t sample_size = 100;
  std::uint64_t seed = 1;
  /// Threads profiling databases concurrently (0 = hardware concurrency).
  /// Each database's sample uses the stream derive_stream(seed, site index),
  /// so the advice is identical at every jobs value.
  int jobs = 1;
  /// Price the plan as the batched executors would ship it: check tasks
  /// shrink to semijoin GOid shipping (CostParams::semijoin_task_bytes)
  /// instead of full check_task_bytes.
  BatchOptions batch{};
};

/// One strategy's estimated costs (seconds of simulated time).
struct StrategyEstimate {
  StrategyKind kind = StrategyKind::CA;
  double total_s = 0;
  double response_s = 0;
  double bytes = 0;
};

/// What the advisor measured, exposed for diagnostics and tests.
struct AdvisorStats {
  struct PerDb {
    DbId db{};
    std::size_t root_objects = 0;
    std::size_t sampled = 0;
    double survive_rate = 0;        ///< fraction passing the local formula
    double unknowns_per_row = 0;    ///< unsolved predicates per shipped row
    double nested_items_per_object = 0;  ///< eager (PL) item rate
    double nested_items_per_row = 0;     ///< lazy (BL) item rate
    double assistants_per_item = 0;      ///< capable isomers per item
    double fetches_per_object = 0;       ///< distinct navigations, sampled
    /// One shipped result row on the wire: ids, target values and the
    /// sampled unsolved markers.
    double row_bytes = 0;
  };
  std::vector<PerDb> dbs;
  /// One check task on the wire under the advised batching.
  double task_bytes = 0;
};

struct Advice {
  std::vector<StrategyEstimate> estimates;  ///< CA, BL, PL order
  StrategyKind best_total = StrategyKind::BL;
  StrategyKind best_response = StrategyKind::BL;
  AdvisorStats stats;
  std::string rationale;  ///< one-paragraph human-readable explanation
};

/// Estimates all three paper strategies for `query` on `federation` and
/// recommends one per objective. Throws QueryError when the query does not
/// resolve against the global schema.
[[nodiscard]] Advice advise_strategy(const Federation& federation,
                                     const GlobalQuery& query,
                                     const AdvisorOptions& options = {});

}  // namespace isomer
