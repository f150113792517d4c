// The paper's running example, end to end (Figures 1-8).
//
// Reconstructs DB1/DB2/DB3 of Fig. 1/4, the integrated global schema of
// Fig. 2, the GOid mapping tables of Fig. 5, query Q1 of Fig. 3 with its
// derived local queries Q1'/Q1'', the materialized global classes of Fig. 6,
// and runs all three strategies, printing the certified answers (Fig. 7) and
// the executing flows (Fig. 8).
//
//   $ ./university_federation
#include <iostream>

#include "isomer/core/strategy.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/query/printer.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/workload/paper_example.hpp"

using namespace isomer;

int main() {
  const paper::UniversityExample example = paper::make_university();
  const Federation& federation = *example.federation;
  const GlobalQuery query = paper::q1();

  std::cout << "=== Figure 2: the constructed global schema ===\n"
            << federation.schema() << "\n";

  std::cout << "=== Figure 5: the GOid mapping tables ===\n"
            << federation.goids() << "\n";

  std::cout << "=== Figure 3: Q1 and its local queries ===\n"
            << "Q1:   " << to_sqlx(query) << "\n";
  for (const DbId db : local_query_sites(federation.schema(), query)) {
    const auto local = derive_local_query(federation.schema(), query, db);
    std::cout << "Q1@DB" << db.value() << ": " << to_sqlx(*local) << "\n";
  }
  std::cout << "\n";

  std::cout << "=== Figure 6: materialized global classes (outerjoin over "
               "GOids) ===\n";
  const MaterializedView view = materialize(
      federation, classes_involved(federation.schema(), query));
  for (const char* class_name : {"Student", "Teacher"}) {
    const MaterializedExtent& extent = view.extent(class_name);
    std::cout << class_name << ":\n";
    for (std::size_t pos = 0; pos < extent.size(); ++pos) {
      std::cout << "  g" << extent.entities()[pos].value() << " {";
      const ClassDef& def = extent.cls().def();
      for (std::size_t a = 0; a < def.attribute_count(); ++a)
        std::cout << " " << def.attribute(a).name << "="
                  << extent.cell(pos, a);
      std::cout << " }\n";
    }
  }
  std::cout << "\n";

  std::cout << "=== Figures 7/8: strategy execution ===\n";
  for (const StrategyKind kind : kPaperStrategies) {
    obs::TraceSession session;
    StrategyOptions options;
    options.trace_session = &session;
    const StrategyReport report =
        execute_strategy(kind, federation, query, options);
    std::cout << "--- " << to_string(kind) << " (phases:";
    for (const Phase phase : session.phase_order())
      std::cout << " " << to_string(phase);
    std::cout << ") ---\n" << report.result;
    std::cout << "response " << to_milliseconds(report.response_ns)
              << " ms, total " << to_milliseconds(report.total_ns) << " ms\n\n";
  }

  std::cout << "The paper's answer: (Hedy, Kelly) certain; (Tony, Haley) "
               "maybe.\n";
  return 0;
}
