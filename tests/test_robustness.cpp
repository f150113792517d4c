// Robustness: fuzzed inputs and corrupted federations must fail through
// typed errors (or succeed), never crash or corrupt state.
#include <gtest/gtest.h>

#include "isomer/common/rng.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/io/catalog.hpp"
#include "isomer/query/parser.hpp"
#include "isomer/workload/paper_example.hpp"

namespace isomer {
namespace {

/// Random printable garbage plus structure-adjacent characters.
std::string random_text(Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcXYZ0129 .,*()<>=!'\"\\#\n\t_-";
  std::string text;
  const std::size_t len =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(max_len)));
  for (std::size_t i = 0; i < len; ++i)
    text += kAlphabet[rng.index(sizeof(kAlphabet) - 1)];
  return text;
}

/// Applies one random mutation (substitute / insert / delete) to `text`.
std::string mutate(Rng& rng, std::string text) {
  if (text.empty()) return text;
  static constexpr char kBytes[] = "\"\\()=.<>x0\n ";
  const std::size_t pos = rng.index(text.size());
  switch (rng.uniform_int(0, 2)) {
    case 0:
      text[pos] = kBytes[rng.index(sizeof(kBytes) - 1)];
      break;
    case 1:
      text.insert(pos, 1, kBytes[rng.index(sizeof(kBytes) - 1)]);
      break;
    default:
      text.erase(pos, 1);
      break;
  }
  return text;
}

TEST(ParserFuzz, GarbageNeverCrashes) {
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const std::string text = random_text(rng, 120);
    try {
      (void)parse_sqlx(text);
    } catch (const ParseError&) {
      // expected for almost everything
    }
  }
}

TEST(ParserFuzz, MutatedValidQueriesFailCleanly) {
  Rng rng(4243);
  const std::string base =
      "Select X.name, X.advisor.name From Student X Where "
      "X.address.city=Taipei and (X.advisor.speciality=database or "
      "X.age>=30)";
  for (int i = 0; i < 2000; ++i) {
    std::string text = base;
    const int mutations = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < mutations; ++m) text = mutate(rng, std::move(text));
    try {
      (void)parse_sqlx(text);
    } catch (const ParseError&) {
    }
  }
}

TEST(CatalogFuzz, MutatedCatalogsFailCleanly) {
  const paper::UniversityExample example = paper::make_university();
  const std::string base = save_catalog(*example.federation);
  Rng rng(4244);
  int survived = 0;
  for (int i = 0; i < 300; ++i) {
    std::string text = base;
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) text = mutate(rng, std::move(text));
    try {
      const auto reloaded = load_catalog(text);
      ++survived;  // harmless mutation (comment, value tweak, ...)
      // Whatever loaded must be internally consistent enough to answer.
      if (reloaded->schema().find_class("Student") != nullptr)
        (void)reference_answer(*reloaded, paper::q1());
    } catch (const Error&) {
      // typed failure: CatalogError / SchemaError / FederationError / ...
    }
  }
  // Sanity: the fuzz actually exercised both paths.
  EXPECT_GT(survived, 0);
  EXPECT_LT(survived, 300);
}

TEST(Robustness, InconsistentFederationStillAnswers) {
  // Violate the consistency assumption on purpose: isomeric students with
  // different names. The equivalence GUARANTEE is off (documented), but
  // every strategy must still terminate with some answer and no crash.
  paper::UniversityExample example = paper::make_university();
  // make_university returns const dbs through the federation; rebuild with a
  // conflict instead: John's DB2 isomer gets a different sex.
  // (set via the catalog round-trip, which exposes mutable stores)
  const std::string text = save_catalog(*example.federation);
  const std::string corrupted = [&] {
    std::string t = text;
    // John is null-sexed in DB1 and "male" in DB2; flip the DB2 copy so the
    // entity carries conflicting evidence... no: null vs male never
    // conflicts. Instead flip John's *name* in DB2 — both databases store
    // it non-null, so the isomers now disagree.
    const std::size_t db2 = t.find("database 2");
    EXPECT_NE(db2, std::string::npos);
    const std::size_t pos = t.find("\"name\" = str \"John\"", db2);
    EXPECT_NE(pos, std::string::npos);
    return t.replace(pos, std::string("\"name\" = str \"John\"").size(),
                     "\"name\" = str \"Jon\"");
  }();
  const auto federation = load_catalog(corrupted);
  EXPECT_FALSE(federation->check_consistency().empty());

  GlobalQuery query;
  query.range_class = "Student";
  query.select("name");
  query.where("sex", CompOp::Eq, "male");
  for (const StrategyKind kind : kAllStrategies) {
    const StrategyReport report =
        execute_strategy(kind, *federation, query);
    EXPECT_GT(report.response_ns, 0) << to_string(kind);
  }
}

TEST(Robustness, QueriesAgainstWrongSchemaFailTyped) {
  const paper::UniversityExample example = paper::make_university();
  GlobalQuery bad;
  bad.range_class = "Nope";
  bad.select("name");
  for (const StrategyKind kind : kAllStrategies)
    EXPECT_THROW((void)execute_strategy(kind, *example.federation, bad),
                 Error)
        << to_string(kind);
}

}  // namespace
}  // namespace isomer
