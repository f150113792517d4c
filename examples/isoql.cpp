// isoql — an interactive shell over a federation.
//
// Type SQL/X queries against the built-in university federation (the
// paper's running example) or the hospital demo; switch execution
// strategies, compare all of them, ask the advisor, and have maybe results
// explained.
//
//   $ ./isoql                  # university federation (paper Figs. 1-5)
//   $ ./isoql hospital         # the clinic scenario
//   $ ./isoql mydata.catalog   # any federation saved with .save
//   $ echo "Select X.name From Student X Where X.age>25" | ./isoql
//
// Commands:
//   <SQL/X query>        run under the current strategy
//   .strategy [CA|BL|PL|BLS|PLS]   show or set the strategy
//   .compare             rerun the last query under all five strategies
//   .advise              ask the advisor about the last query
//   .explain <goid>      explain one entity of the last query, e.g. .explain 4
//   .save <path>         write the federation as a catalog file
//   .schema              print the global schema
//   .goids               print the GOid mapping tables
//   .trace               print the last run's phase spans (isomer-trace-v1)
//   .gantt               ASCII timeline of the last run (Fig. 8, live)
//   .help                this text
//   .quit                leave
#include <iostream>
#include <sstream>
#include <string>

#include "isomer/analytic/advisor.hpp"
#include "isomer/core/explain.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/federation/isomerism.hpp"
#include "isomer/io/catalog.hpp"
#include "isomer/obs/jsonl.hpp"
#include "isomer/obs/trace_export.hpp"
#include "isomer/query/parser.hpp"
#include "isomer/query/printer.hpp"
#include "isomer/schema/integrator.hpp"
#include "isomer/workload/paper_example.hpp"

namespace {

using namespace isomer;

/// The hospital scenario, reusable here (mirrors examples/hospital_network).
std::unique_ptr<Federation> make_hospital() {
  ComponentSchema s1(DbId{1}, "downtown");
  s1.add_class("Physician")
      .add_attribute("name", PrimType::String)
      .add_attribute("department", PrimType::String);
  s1.add_class("Patient")
      .add_attribute("nhid", PrimType::Int)
      .add_attribute("name", PrimType::String)
      .add_attribute("glucose", PrimType::Real)
      .add_attribute("attending", ComplexType{"Physician"});
  ComponentSchema s2(DbId{2}, "lakeside");
  s2.add_class("Patient")
      .add_attribute("nhid", PrimType::Int)
      .add_attribute("name", PrimType::String)
      .add_attribute("scan_result", PrimType::String);
  auto db1 = std::make_unique<ComponentDatabase>(std::move(s1));
  auto db2 = std::make_unique<ComponentDatabase>(std::move(s2));
  const LOid chen = db1->insert(
      "Physician", {{"name", "Dr. Chen"}, {"department", "endocrinology"}});
  db1->insert("Patient", {{"nhid", 1001},
                          {"name", "Ada"},
                          {"glucose", 9.1},
                          {"attending", LocalRef{chen}}});
  db1->insert("Patient", {{"nhid", 1002}, {"name", "Bo"}, {"glucose", 5.0}});
  db2->insert("Patient",
              {{"nhid", 1001}, {"name", "Ada"}, {"scan_result", "abnormal"}});
  db2->insert("Patient",
              {{"nhid", 1003}, {"name", "Cal"}, {"scan_result", "normal"}});

  IntegrationSpec spec;
  ClassSpec& patient = spec.add_class("Patient");
  patient.constituents = {{DbId{1}, "Patient"}, {DbId{2}, "Patient"}};
  patient.identity_attribute = "nhid";
  ClassSpec& physician = spec.add_class("Physician");
  physician.constituents = {{DbId{1}, "Physician"}};
  GlobalSchema schema = integrate({&db1->schema(), &db2->schema()}, spec);
  GoidTable goids = detect_isomerism(schema, {db1.get(), db2.get()});
  std::vector<std::unique_ptr<ComponentDatabase>> dbs;
  dbs.push_back(std::move(db1));
  dbs.push_back(std::move(db2));
  return std::make_unique<Federation>(std::move(schema), std::move(dbs),
                                      std::move(goids));
}

struct Shell {
  const Federation& federation;
  StrategyKind strategy = StrategyKind::BL;
  std::optional<GlobalQuery> last_query;
  obs::TraceSession last_session;

  void run_query(const GlobalQuery& query) {
    obs::TraceSession session;
    StrategyOptions options;
    options.trace_session = &session;
    const StrategyReport report =
        execute_strategy(strategy, federation, query, options);
    std::cout << report.result;
    std::cout << report.result.certain_count() << " certain, "
              << report.result.maybe_count() << " maybe  ["
              << to_string(strategy) << ": response "
              << to_milliseconds(report.response_ns) << " ms, total "
              << to_milliseconds(report.total_ns) << " ms, "
              << report.bytes_transferred << " B shipped]\n";
    last_query = query;
    last_session = std::move(session);
  }

  void compare() {
    if (!last_query) {
      std::cout << "no query yet\n";
      return;
    }
    std::cout << "strategy   response[ms]   total[ms]       bytes\n";
    for (const StrategyKind kind : kAllStrategies) {
      const StrategyReport report =
          execute_strategy(kind, federation, *last_query);
      std::printf("%-10s %12.3f %11.3f %11llu\n",
                  std::string(to_string(kind)).c_str(),
                  to_milliseconds(report.response_ns),
                  to_milliseconds(report.total_ns),
                  static_cast<unsigned long long>(report.bytes_transferred));
    }
  }

  void advise() {
    if (!last_query) {
      std::cout << "no query yet\n";
      return;
    }
    const Advice advice = advise_strategy(federation, *last_query);
    for (const StrategyEstimate& estimate : advice.estimates)
      std::printf("%-4s est. total %.3f s, response %.3f s\n",
                  std::string(to_string(estimate.kind)).c_str(),
                  estimate.total_s, estimate.response_s);
    std::cout << advice.rationale << "\n";
  }

  void explain_entity(const std::string& arg) {
    if (!last_query) {
      std::cout << "no query yet\n";
      return;
    }
    std::uint64_t id = 0;
    std::istringstream in(arg[0] == 'g' ? arg.substr(1) : arg);
    if (!(in >> id)) {
      std::cout << "usage: .explain <goid>, e.g. .explain 4\n";
      return;
    }
    std::cout << explain(federation, *last_query, GOid{id})
                     .to_text(*last_query);
  }

  void dispatch(const std::string& line);
};

void Shell::dispatch(const std::string& line) {
  if (line.empty()) return;
  if (line[0] != '.') {
    try {
      run_query(parse_sqlx(line));
    } catch (const Error& e) {
      std::cout << "error: " << e.what() << "\n";
    }
    return;
  }
  std::istringstream in(line);
  std::string command, arg;
  in >> command;
  std::getline(in >> std::ws, arg);
  if (command == ".quit" || command == ".exit") std::exit(0);
  if (command == ".help") {
    std::cout << "SQL/X query | .strategy [CA|BL|PL|BLS|PLS] | .compare | "
                 ".advise | .explain <goid> | .save <path> | .schema | "
                 ".goids | .trace | .gantt | .quit\n";
  } else if (command == ".save") {
    if (arg.empty()) {
      std::cout << "usage: .save <path>\n";
    } else {
      try {
        save_catalog_file(federation, arg);
        std::cout << "saved " << arg << "\n";
      } catch (const Error& e) {
        std::cout << "error: " << e.what() << "\n";
      }
    }
  } else if (command == ".schema") {
    std::cout << federation.schema();
  } else if (command == ".goids") {
    std::cout << federation.goids();
  } else if (command == ".trace") {
    if (last_query)
      obs::write_spans(std::cout, last_session);
    else
      std::cout << "no query yet\n";
  } else if (command == ".gantt") {
    if (last_query)
      std::cout << obs::to_gantt(last_session);
    else
      std::cout << "no query yet\n";
  } else if (command == ".strategy") {
    if (!arg.empty()) {
      bool found = false;
      for (const StrategyKind kind : kAllStrategies)
        if (arg == to_string(kind)) {
          strategy = kind;
          found = true;
        }
      if (!found) {
        std::cout << "unknown strategy '" << arg << "'\n";
        return;
      }
    }
    std::cout << "strategy: " << to_string(strategy) << "\n";
  } else if (command == ".compare") {
    compare();
  } else if (command == ".advise") {
    advise();
  } else if (command == ".explain") {
    explain_entity(arg);
  } else {
    std::cout << "unknown command " << command << " (try .help)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Federation> owned;
  paper::UniversityExample university;
  const Federation* federation = nullptr;
  const std::string source = argc > 1 ? argv[1] : "";
  if (source == "hospital") {
    owned = make_hospital();
    federation = owned.get();
    std::cout << "loaded the hospital federation (Patient, Physician)\n";
  } else if (!source.empty()) {
    try {
      owned = load_catalog_file(source);
    } catch (const Error& e) {
      std::cerr << "cannot load " << source << ": " << e.what() << "\n";
      return 1;
    }
    federation = owned.get();
    std::cout << "loaded catalog " << source << "\n";
  } else {
    university = paper::make_university();
    federation = university.federation.get();
    std::cout << "loaded the university federation of the paper's running "
                 "example\n";
  }

  Shell shell{*federation};
  std::cout << "try: Select X.name, X.advisor.name From Student X Where "
               "X.address.city=Taipei\n(.help for commands)\n";
  std::string line;
  while (true) {
    std::cout << "isoql> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    shell.dispatch(line);
  }
  std::cout << "\n";
  return 0;
}
