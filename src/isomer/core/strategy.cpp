#include "isomer/core/strategy.hpp"

#include "isomer/core/operators.hpp"
#include "isomer/federation/materializer.hpp"

namespace isomer {

std::string_view to_string(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::CA:
      return "CA";
    case StrategyKind::BL:
      return "BL";
    case StrategyKind::PL:
      return "PL";
    case StrategyKind::BLS:
      return "BL-S";
    case StrategyKind::PLS:
      return "PL-S";
    case StrategyKind::IM:
      return "IM";
  }
  return "CA";
}

StrategyReport execute_strategy(StrategyKind kind,
                                const Federation& federation,
                                const GlobalQuery& query,
                                const StrategyOptions& options) {
  // A strategy is just a pure plan over the phase operators.
  return execute_plan(federation, query, ExecPlan::pure(kind), options)
      .report;
}

QueryResult reference_answer(const Federation& federation,
                             const GlobalQuery& query) {
  const AttributeProjection involved =
      involved_attributes(federation.schema(), query);
  const MaterializedView view =
      materialize(federation, classes_involved(federation.schema(), query),
                  nullptr, MergePolicy::FirstNonNull, nullptr, &involved);
  return evaluate_global(view, federation.schema(), query);
}

}  // namespace isomer
