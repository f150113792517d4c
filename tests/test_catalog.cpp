// Catalog serialization: round-trips, format details, and error handling.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/io/catalog.hpp"
#include "isomer/query/parser.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"
#include "report_digest.hpp"

namespace isomer {
namespace {

TEST(Catalog, RoundTripsTheUniversityFederation) {
  const paper::UniversityExample example = paper::make_university();
  const std::string text = save_catalog(*example.federation);
  const std::unique_ptr<Federation> reloaded = load_catalog(text);

  // Identical structure...
  EXPECT_EQ(reloaded->db_ids(), example.federation->db_ids());
  EXPECT_EQ(reloaded->goids().entity_count(),
            example.federation->goids().entity_count());
  // ...and a second save is byte-identical (canonical form).
  EXPECT_EQ(save_catalog(*reloaded), text);
}

TEST(Catalog, ReloadedFederationAnswersIdentically) {
  const paper::UniversityExample example = paper::make_university();
  const std::unique_ptr<Federation> reloaded =
      load_catalog(save_catalog(*example.federation));
  const GlobalQuery q1 = paper::q1();
  EXPECT_EQ(reference_answer(*reloaded, q1),
            reference_answer(*example.federation, q1));
  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport a = execute_strategy(kind, *reloaded, q1);
    const StrategyReport b =
        execute_strategy(kind, *example.federation, q1);
    EXPECT_EQ(a.result, b.result) << to_string(kind);
    EXPECT_EQ(a.total_ns, b.total_ns)
        << to_string(kind) << ": identical data must cost identically";
  }
}

TEST(Catalog, PreservesLOidsExactly) {
  const paper::UniversityExample example = paper::make_university();
  const std::unique_ptr<Federation> reloaded =
      load_catalog(save_catalog(*example.federation));
  // Spot-check a few notable objects by their original identifiers.
  EXPECT_EQ(reloaded->db(DbId{1}).class_of(example.ids.s1), "Student");
  EXPECT_EQ(reloaded->db(DbId{2}).class_of(example.ids.a1p), "Address");
  EXPECT_EQ(reloaded->goids().goid_of(example.ids.s1),
            example.federation->goids().goid_of(example.ids.s1));
}

TEST(Catalog, PreservesValueKindsAndEscapes) {
  ComponentSchema schema(DbId{1}, "odd \"name\" with \\slashes");
  schema.add_class("T")
      .add_attribute("b", PrimType::Bool)
      .add_attribute("i", PrimType::Int)
      .add_attribute("r", PrimType::Real)
      .add_attribute("s", PrimType::String)
      .add_attribute("others", ComplexType{"T", true});
  auto db = std::make_unique<ComponentDatabase>(std::move(schema));
  const LOid first = db->insert("T", {{"b", true},
                                      {"i", -42},
                                      {"r", 0.1},
                                      {"s", "quote \" and \\ slash"}});
  const LOid second =
      db->insert("T", {{"others", LocalRefSet{{first}}}});

  GlobalSchema global;
  GlobalClass cls("T", {{DbId{1}, "T"}});
  for (const char* name : {"b", "i", "r", "s"}) {
    cls.mutable_def().add_attribute(
        name, db->schema().cls("T").attribute(
                  *db->schema().cls("T").find_attribute(name)).type);
  }
  cls.mutable_def().add_attribute("others", ComplexType{"T", true});
  cls.pad_local_names();
  for (std::size_t a = 0; a < cls.def().attribute_count(); ++a)
    cls.bind_local_attr(0, a, cls.def().attribute(a).name);
  global.add_class(std::move(cls));
  GoidTable goids;
  (void)goids.register_entity("T", {first});
  (void)goids.register_entity("T", {second});
  std::vector<std::unique_ptr<ComponentDatabase>> dbs;
  dbs.push_back(std::move(db));
  const Federation federation(std::move(global), std::move(dbs),
                              std::move(goids));

  const std::unique_ptr<Federation> reloaded =
      load_catalog(save_catalog(federation));
  const Object* obj = reloaded->db(DbId{1}).fetch(first);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value(0), Value(true));
  EXPECT_EQ(obj->value(1), Value(-42));
  EXPECT_EQ(obj->value(2), Value(0.1));
  EXPECT_EQ(obj->value(3), Value("quote \" and \\ slash"));
  EXPECT_EQ(reloaded->db(DbId{1}).fetch(second)->value(4),
            Value(LocalRefSet{{first}}));
  EXPECT_EQ(reloaded->db(DbId{1}).schema().db_name(),
            "odd \"name\" with \\slashes");
}

TEST(Catalog, RoundTripsRandomFederations) {
  Rng rng(333);
  ParamConfig config;
  config.n_objects = {20, 40};
  for (int trial = 0; trial < 5; ++trial) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const std::string text = save_catalog(*synth.federation);
    const std::unique_ptr<Federation> reloaded = load_catalog(text);
    EXPECT_EQ(save_catalog(*reloaded), text);
    EXPECT_EQ(reference_answer(*reloaded, synth.query),
              reference_answer(*synth.federation, synth.query));
  }
}

TEST(Catalog, FileRoundTrip) {
  const paper::UniversityExample example = paper::make_university();
  const std::string path = ::testing::TempDir() + "university.catalog";
  save_catalog_file(*example.federation, path);
  const std::unique_ptr<Federation> reloaded = load_catalog_file(path);
  EXPECT_EQ(save_catalog(*reloaded), save_catalog(*example.federation));
  EXPECT_THROW((void)load_catalog_file("/nonexistent/nope.catalog"),
               CatalogError);
}

TEST(Catalog, MalformedInputs) {
  EXPECT_THROW((void)load_catalog("bogus directive"), CatalogError);
  EXPECT_THROW((void)load_catalog("class \"X\"\n"), CatalogError)
      << "class outside a database";
  EXPECT_THROW((void)load_catalog("database 1 \"A\"\nobject \"X\" 1\n"),
               Error)
      << "object of an undeclared class";
  EXPECT_THROW((void)load_catalog("database 1 \"A\"\nclass \"C\"\n"
                                  "object \"C\" 7\n"),
               CatalogError)
      << "out-of-order object ids";
  EXPECT_THROW((void)load_catalog("global \"G\"\n"), CatalogError)
      << "global class without constituents";
  EXPECT_THROW((void)load_catalog("entity \"G\" nonsense\n"), CatalogError);
  EXPECT_THROW((void)load_catalog("database 1 \"A\nbroken"), CatalogError)
      << "unterminated string";
}

TEST(Catalog, HandEditedCatalogGetsFederationValidation) {
  // A catalog whose entity names a loaded object of a class that is not a
  // constituent of the entity's global class passes parsing but fails the
  // Federation constructor's integrity checks.
  const std::string text =
      "database 1 \"A\"\n"
      "class \"C\"\n"
      "  attr \"k\" int\n"
      "class \"D\"\n"
      "object \"C\" 1\n"
      "  \"k\" = int 5\n"
      "object \"D\" 2\n"
      "end database\n"
      "global \"C\"\n"
      "  attr \"k\" int\n"
      "  constituent 1 \"C\"\n"
      "    bind \"k\" \"k\"\n"
      "entity \"C\" 1:1\n"
      "entity \"C\" 1:2\n";
  try {
    (void)load_catalog(text);
    FAIL() << "a non-constituent isomer must be rejected";
  } catch (const FederationError& e) {
    EXPECT_NE(std::string(e.what()).find("not a constituent object"),
              std::string::npos)
        << e.what();
  }
}

/// The university catalog with the first occurrence of `from` replaced.
std::string edited_university(const std::string& from, const std::string& to) {
  std::string text = save_catalog(*paper::make_university().federation);
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

/// Expects a CatalogError naming a line of the catalog.
void expect_catalog_error(const std::string& text, const std::string& what) {
  try {
    (void)load_catalog(text);
    ADD_FAILURE() << what << ": loaded";
  } catch (const CatalogError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u)
        << what << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a CatalogError: " << e.what();
  }
}

TEST(Catalog, IdsOutOfRangeOrMalformedAreRejected) {
  // Each id is parsed into its exact width: a narrowing cast would read
  // 65537:4294967302 as 1:6 and load the wrong mapping without a word.
  const std::string student = "entity \"Student\" 1:6 2:6";
  const std::vector<std::pair<std::string, std::string>> edits = {
      {student, "entity \"Student\" 65537:4294967302 2:6"},
      {student, "entity \"Student\" 65537:6 2:6"},
      {student, "entity \"Student\" 1:4294967302 2:6"},
      {student, "entity \"Student\" -1:6 2:6"},
      {student, "entity \"Student\" 1:+6 2:6"},
      {student, "entity \"Student\" 1:6x 2:6"},
      {student, "entity \"Student\" 1: 2:6"},
      {"database 2 \"DB2\"", "database 65538 \"DB2\""},
      {"database 2 \"DB2\"", "database -2 \"DB2\""},
      {"constituent 3 \"Teacher\"", "constituent 65539 \"Teacher\""},
      {"object \"Student\" 6", "object \"Student\" 4294967302"},
      {"object \"Student\" 6", "object \"Student\" 0x6"},
      {"\"advisor\" = ref 3", "\"advisor\" = ref 4294967299"},
      {"\"advisor\" = ref 3", "\"advisor\" = ref -3"},
  };
  for (const auto& [from, to] : edits)
    expect_catalog_error(edited_university(from, to), to);
  expect_catalog_error(
      "database 1 \"A\"\nclass \"C\"\n  attr \"r\" refset \"C\"\n"
      "object \"C\" 1\n  \"r\" = refset 1 4294967297\n",
      "refset target past 32 bits");
}

TEST(Catalog, EntitiesMustNameLoadedObjects) {
  // Checked before the GOid table sees the pair, whose arrays the ids size.
  const std::string text =
      save_catalog(*paper::make_university().federation);
  expect_catalog_error(text + "entity \"Student\" 1:4000000000\n",
                       "past the last object");
  expect_catalog_error(text + "entity \"Student\" 1:0\n", "local 0");
  expect_catalog_error(text + "entity \"Student\" 9:1\n",
                       "database never loaded");
}

TEST(Catalog, ValueParseFailuresAreCatalogErrors) {
  const std::string head =
      "database 1 \"A\"\nclass \"C\"\n  attr \"k\" int\n"
      "  attr \"x\" real\nobject \"C\" 1\n";
  for (const std::string line :
       {"  \"k\" = int abc\n", "  \"k\" = int 99999999999999999999\n",
        "  \"x\" = real zz\n", "  \"x\" = real 1e999999\n",
        "  \"k\" = int\n", "object \"C\"\n"}) {
    try {
      (void)load_catalog(head + line);
      ADD_FAILURE() << line << ": loaded";
    } catch (const CatalogError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line 6: ", 0), 0u) << e.what();
    }
  }
}

TEST(Catalog, DanglingRefsNavigateToNothing) {
  // A hand-written catalog may store refs to LOids its database never
  // allocated: local 0 and one past the last object. Navigation through
  // them finds no object and charges nothing, so the predicate through the
  // reference stays Unknown at the holder, and every strategy agrees with
  // the reference answer.
  const std::string text =
      "database 1 \"A\"\n"
      "class \"C\"\n"
      "  attr \"k\" int\n"
      "  attr \"next\" ref \"C\"\n"
      "object \"C\" 1\n"
      "  \"k\" = int 5\n"
      "  \"next\" = ref 0\n"
      "object \"C\" 2\n"
      "  \"k\" = int 6\n"
      "  \"next\" = ref 4\n"
      "object \"C\" 3\n"
      "  \"k\" = int 7\n"
      "  \"next\" = ref 1\n"
      "end database\n"
      "database 2 \"B\"\n"
      "class \"C\"\n"
      "  attr \"k\" int\n"
      "object \"C\" 1\n"
      "  \"k\" = int 6\n"
      "end database\n"
      "global \"C\"\n"
      "  attr \"k\" int\n"
      "  attr \"next\" ref \"C\"\n"
      "  constituent 1 \"C\"\n"
      "    bind \"k\" \"k\"\n"
      "    bind \"next\" \"next\"\n"
      "  constituent 2 \"C\"\n"
      "    bind \"k\" \"k\"\n"
      "entity \"C\" 1:1\n"
      "entity \"C\" 1:2 2:1\n"
      "entity \"C\" 1:3\n";
  const std::unique_ptr<Federation> federation = load_catalog(text);
  const ComponentDatabase& db = federation->db(DbId{1});
  AccessMeter meter;
  for (const std::uint32_t local : {1u, 2u}) {
    const Object* obj = db.fetch(LOid{DbId{1}, local});
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(db.deref(obj->value(1), &meter), nullptr) << "object " << local;
  }
  EXPECT_EQ(meter, AccessMeter{});

  const GlobalQuery query = parse_sqlx("Select X.k From C X Where X.next.k = 5");
  const QueryResult expected = reference_answer(*federation, query);
  ASSERT_EQ(expected.rows.size(), 3u);
  for (const ResultRow& row : expected.rows)
    EXPECT_EQ(row.status, row.entity == GOid{3} ? ResultStatus::Certain
                                                : ResultStatus::Maybe);
  for (const StrategyKind kind : kAllStrategies)
    EXPECT_EQ(execute_strategy(kind, *federation, query).result, expected)
        << to_string(kind);
}

/// Rewrites a saved synthetic catalog so every predicate attribute (p*) and
/// the first extra attribute (x0, a covariate candidate) is a real, with
/// every fifth stored value `real nan` — what a hand-written catalog can
/// hold, since the loader reads reals through std::stod.
std::string with_nan_reals(const std::string& catalog) {
  std::istringstream in(catalog);
  std::ostringstream out;
  std::size_t values = 0;
  for (std::string line; std::getline(in, line);) {
    const bool real_attr = line.rfind("  attr \"p", 0) == 0 ||
                           line.rfind("  attr \"x0\"", 0) == 0;
    const bool real_value = line.rfind("  \"p", 0) == 0 ||
                            line.rfind("  \"x0\"", 0) == 0;
    if (real_attr && line.size() > 4 &&
        line.compare(line.size() - 4, 4, " int") == 0) {
      line.replace(line.size() - 3, 3, "real");
    } else if (const std::size_t at = line.find("= int ");
               real_value && at != std::string::npos) {
      line.replace(at, 6, "= real ");
      if (values++ % 5 == 0) line = line.substr(0, at + 7) + "nan";
    }
    out << line << "\n";
  }
  return out.str();
}

TEST(Catalog, NaNRealsBuildAnImputeModelAndRunImDeterministically) {
  Rng rng(515);
  ParamConfig config;
  config.n_classes = {2, 3};
  config.n_preds = {1, 3};
  config.n_objects = {150, 300};
  config.forced_missing_rate = 0.3;
  std::uint64_t consulted = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const std::string text = with_nan_reals(save_catalog(*synth.federation));
    ASSERT_NE(text.find("real nan"), std::string::npos);

    // Two independent loads, models and runs must agree bitwise.
    const auto run = [&] {
      const std::unique_ptr<Federation> federation = load_catalog(text);
      const ImputeModel model = ImputeModel::build(*federation);
      const std::string& root = synth.query.range_class;
      const std::optional<std::size_t> p0_attr =
          federation->schema().find_class(root)->def().find_attribute("p0");
      EXPECT_TRUE(p0_attr.has_value());
      const AttrEstimator* p0 =
          p0_attr ? model.estimator(root, *p0_attr) : nullptr;
      EXPECT_TRUE(p0 != nullptr && !p0->histogram.empty() &&
                  std::isnan(p0->histogram.rbegin()->first.as_real()))
          << "NaN reals must reach the histogram, ordered last";
      std::string digest;
      for (const bool mar : {false, true}) {
        StrategyOptions exec;
        exec.impute = &model;
        exec.impute_threshold = 0.5;
        exec.impute_mar = mar;
        const StrategyReport report = execute_strategy(
            StrategyKind::IM, *federation, synth.query, exec);
        consulted += report.imputed_atoms + report.impute_declined;
        digest += testing::report_digest_line(mar ? "mar" : "mcar", report) +
                  " imputed=" + std::to_string(report.imputed_atoms) + "\n";
        for (const ResultRow& row : report.result.rows)
          digest += std::to_string(row.confidence) + ";";
      }
      return digest;
    };
    EXPECT_EQ(run(), run()) << "trial " << trial;
  }
  EXPECT_GT(consulted, 0u) << "IM never consulted the NaN-carrying model";
}

}  // namespace
}  // namespace isomer
