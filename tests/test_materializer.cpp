// The centralized path: outerjoin materialization into columns and global
// evaluation.
#include <gtest/gtest.h>

#include <thread>

#include "isomer/common/error.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/integrator.hpp"
#include "isomer/workload/paper_example.hpp"

namespace isomer {
namespace {

class MaterializerFixture : public ::testing::Test {
 protected:
  void SetUp() override { example_ = paper::make_university(); }
  const Federation& fed() { return *example_.federation; }
  paper::UniversityExample example_;
};

TEST_F(MaterializerFixture, ClassesInvolvedFollowsAllPaths) {
  const GlobalQuery q1 = paper::q1();
  EXPECT_EQ(classes_involved(fed().schema(), q1),
            (std::vector<std::string>{"Student", "Teacher", "Address",
                                      "Department"}));

  GlobalQuery narrow;
  narrow.range_class = "Teacher";
  narrow.select("name");
  EXPECT_EQ(classes_involved(fed().schema(), narrow),
            (std::vector<std::string>{"Teacher"}));
}

TEST_F(MaterializerFixture, EveryEntityMaterializesOnce) {
  const MaterializedView view = materialize(fed(), {"Student"});
  EXPECT_EQ(view.extent("Student").size(), 5u);
  EXPECT_THROW((void)view.extent("Teacher"), FederationError);
}

TEST_F(MaterializerFixture, MissingValuesFilledFromIsomers) {
  const MaterializedView view = materialize(fed(), {"Student"});
  // s2' (DB2) has no age attribute; its isomer s1 (DB1) supplies 31.
  const MaterializedExtent& students = view.extent("Student");
  const auto john = students.position(example_.entity(example_.ids.s1));
  ASSERT_TRUE(john.has_value());
  const auto age =
      fed().schema().cls("Student").def().find_attribute("age");
  EXPECT_EQ(students.cell(*john, *age), Value(31));
  // sex is null in DB1 and male in DB2: first non-null wins.
  const auto sex =
      fed().schema().cls("Student").def().find_attribute("sex");
  EXPECT_EQ(students.cell(*john, *sex), Value("male"));
}

TEST_F(MaterializerFixture, FindMissesForeignAndUnassignedGOids) {
  const MaterializedView view = materialize(fed(), {"Student", "Teacher"});
  const MaterializedExtent& students = view.extent("Student");
  EXPECT_FALSE(students.position(GOid{0}).has_value());
  const std::uint64_t entities = fed().goids().entity_count();
  EXPECT_FALSE(students.position(GOid{entities + 1}).has_value());
  EXPECT_FALSE(students.position(GOid{entities + 1000}).has_value());
  // A teacher's class position indexes a student slot too; the id check
  // keeps it from answering for another class.
  const GOid teacher = example_.entity(example_.ids.t1);
  ASSERT_TRUE(view.extent("Teacher").position(teacher).has_value());
  EXPECT_FALSE(students.position(teacher).has_value());
  for (const GOid student : fed().goids().entities_of("Student")) {
    const auto pos = students.position(student);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(students.entities()[*pos], student);
  }
}

TEST_F(MaterializerFixture, RefsRewrittenToGOids) {
  const MaterializedView view = materialize(fed(), {"Teacher"});
  const MaterializedExtent& teachers = view.extent("Teacher");
  const auto jeffery = teachers.position(example_.entity(example_.ids.t1));
  ASSERT_TRUE(jeffery.has_value());
  const auto dept =
      fed().schema().cls("Teacher").def().find_attribute("department");
  EXPECT_EQ(teachers.cell(*jeffery, *dept),
            Value(GlobalRef{example_.entity(example_.ids.d1)}));
}

TEST_F(MaterializerFixture, MeterCountsJoinWork) {
  AccessMeter meter;
  (void)materialize(fed(), {"Student"}, &meter);
  // 6 constituent student objects (3 in DB1, 3 in DB2) probe the join once
  // each.
  EXPECT_EQ(meter.comparisons, 6u);
  EXPECT_EQ(meter.objects_fetched, 6u);
  EXPECT_GT(meter.table_probes, 0u) << "ref globalization probes the tables";
}

TEST_F(MaterializerFixture, EvaluateGlobalClassifiesRows) {
  const GlobalQuery q1 = paper::q1();
  const MaterializedView view =
      materialize(fed(), classes_involved(fed().schema(), q1));
  AccessMeter meter;
  const QueryResult result =
      evaluate_global(view, fed().schema(), q1, &meter);
  EXPECT_EQ(result.certain_count(), 1u);
  EXPECT_EQ(result.maybe_count(), 1u);
  // Comparisons happen only when a navigation reaches the final attribute:
  // John/Hedy/Fanny evaluate all 3 predicates, Tony and Mary have a null
  // address (no comparison there) -> 3*3 + 2*2 = 13.
  EXPECT_EQ(meter.comparisons, 13u);
}

TEST_F(MaterializerFixture, EvaluateGlobalRejectsMalformedQuery) {
  GlobalQuery bad;
  bad.range_class = "Student";
  bad.where("nope", CompOp::Eq, 1);
  const MaterializedView view = materialize(fed(), {"Student"});
  EXPECT_THROW((void)evaluate_global(view, fed().schema(), bad), QueryError);
}

TEST(Materializer, EvaluateGlobalChecksDomainExtentsAtBinding) {
  // Every advisor is null, so no object would ever navigate into Teacher;
  // a view without the Teacher extent is still rejected, before any row.
  ComponentSchema s1(DbId{1}, "DB1");
  s1.add_class("Teacher").add_attribute("name", PrimType::String);
  s1.add_class("Student")
      .add_attribute("name", PrimType::String)
      .add_attribute("advisor", ComplexType{"Teacher"});
  auto db1 = std::make_unique<ComponentDatabase>(std::move(s1));
  const LOid teacher = db1->insert("Teacher", {{"name", "Kim"}});
  const LOid student = db1->insert("Student", {{"name", "Lee"}});
  IntegrationSpec spec;
  spec.add_class("Teacher").constituents = {{DbId{1}, "Teacher"}};
  spec.add_class("Student").constituents = {{DbId{1}, "Student"}};
  GlobalSchema schema = integrate({&db1->schema()}, spec);
  GoidTable goids;
  (void)goids.register_entity("Teacher", {teacher});
  (void)goids.register_entity("Student", {student});
  std::vector<std::unique_ptr<ComponentDatabase>> dbs;
  dbs.push_back(std::move(db1));
  const Federation fed(std::move(schema), std::move(dbs), std::move(goids));

  GlobalQuery q;
  q.range_class = "Student";
  q.where("advisor.name", CompOp::Eq, "Kim");
  const MaterializedView view = materialize(fed, {"Student"});
  EXPECT_THROW((void)evaluate_global(view, fed.schema(), q), FederationError);
  // A target path is bound the same way.
  GlobalQuery target;
  target.range_class = "Student";
  target.select("advisor.name");
  EXPECT_THROW((void)evaluate_global(view, fed.schema(), target),
               FederationError);
}

TEST_F(MaterializerFixture, QueryWithoutPredicatesReturnsAllCertain) {
  GlobalQuery all;
  all.range_class = "Department";
  all.select("name");
  const MaterializedView view = materialize(fed(), {"Department"});
  const QueryResult result = evaluate_global(view, fed().schema(), all);
  EXPECT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.certain_count(), 3u);
}

TEST_F(MaterializerFixture, NullTargetsStayNull) {
  GlobalQuery q;
  q.range_class = "Department";
  q.select("location");
  const MaterializedView view = materialize(fed(), {"Department"});
  const QueryResult result = evaluate_global(view, fed().schema(), q);
  // gd1 (CS): location null in DB1 and null in DB3's d2''.
  const ResultRow* cs = result.find(example_.entity(example_.ids.d1));
  ASSERT_NE(cs, nullptr);
  EXPECT_TRUE(cs->targets[0].is_null());
  // gd3 (PH) exists only in DB3 with a location.
  const ResultRow* ph = result.find(example_.entity(example_.ids.d3pp));
  EXPECT_EQ(ph->targets[0], Value("building D"));
}

// ---- Column storage edge cases -------------------------------------------

/// Two databases integrating P and Q. P: Int `n`, Real `r`, String `s`,
/// Bool `b`, reference `q` (to Q). Q: Int `n`. DB1 also holds a local class
/// no global class integrates, so its objects have no GOid.
struct EdgeFixture {
  static constexpr std::int64_t kBig = (std::int64_t{1} << 53) + 1;
  std::unique_ptr<Federation> federation;
  GOid big, mixed, foreign, unmapped, from_db2, q1;

  EdgeFixture() {
    std::vector<std::unique_ptr<ComponentDatabase>> dbs;
    for (std::uint16_t id = 1; id <= 2; ++id) {
      ComponentSchema schema(DbId{id}, "DB" + std::to_string(id));
      schema.add_class("Junk").add_attribute("n", PrimType::Int);
      schema.add_class("Q").add_attribute("n", PrimType::Int);
      schema.add_class("P")
          .add_attribute("n", PrimType::Int)
          .add_attribute("r", PrimType::Real)
          .add_attribute("s", PrimType::String)
          .add_attribute("b", PrimType::Bool)
          .add_attribute("q", ComplexType{"Q"});
      dbs.push_back(std::make_unique<ComponentDatabase>(std::move(schema)));
    }
    ComponentDatabase& db1 = *dbs[0];
    ComponentDatabase& db2 = *dbs[1];
    const LOid junk = db1.insert("Junk", {{"n", 1}});
    const LOid lq1 = db1.insert("Q", {{"n", 7}});
    const LOid lp_big = db1.insert(
        "P", {{"n", Value(kBig)}, {"r", 3}, {"s", "x"}, {"b", true},
              {"q", Value(LocalRef{lq1})}});
    const LOid lp_mixed = db1.insert("P", {{"r", 2.5}, {"b", false}});
    // `q` is declared to Q but names a P object: another class's extent.
    const LOid lp_foreign = db1.insert("P", {{"q", Value(LocalRef{lp_big})}});
    const LOid lp_unmapped = db1.insert("P", {{"q", Value(LocalRef{junk})}});
    // DB2 fills what DB1 leaves null, and names DB1's Q from another database.
    const LOid lp_mixed2 =
        db2.insert("P", {{"n", 4}, {"s", "y"}, {"q", Value(LocalRef{lq1})}});

    GoidTable goids;
    q1 = goids.register_entity("Q", {lq1});
    big = goids.register_entity("P", {lp_big});
    mixed = goids.register_entity("P", {lp_mixed, lp_mixed2});
    foreign = goids.register_entity("P", {lp_foreign});
    unmapped = goids.register_entity("P", {lp_unmapped});
    from_db2 = mixed;

    IntegrationSpec spec;
    for (const char* name : {"Q", "P"})
      spec.add_class(name).constituents = {{DbId{1}, name}, {DbId{2}, name}};
    GlobalSchema schema = integrate({&db1.schema(), &db2.schema()}, spec);
    federation = std::make_unique<Federation>(std::move(schema),
                                              std::move(dbs), std::move(goids));
  }

  [[nodiscard]] std::size_t attr(const char* name) const {
    return *federation->schema().cls("P").def().find_attribute(name);
  }
  [[nodiscard]] Value cell(const MaterializedView& view, GOid entity,
                           const char* name) const {
    const MaterializedExtent& ps = view.extent("P");
    return ps.cell(*ps.position(entity), attr(name));
  }
};

TEST(MaterializerColumns, CellsKeepEveryKindExactly) {
  const EdgeFixture fx;
  const MaterializedView view = materialize(*fx.federation, {"P", "Q"});
  // 2^53+1 is not a double: the cell still holds the Int.
  EXPECT_EQ(fx.cell(view, fx.big, "n"), Value(EdgeFixture::kBig));
  EXPECT_EQ(fx.cell(view, fx.big, "n").kind(), ValueKind::Int);
  // A Real attribute keeps each cell's own kind.
  EXPECT_EQ(fx.cell(view, fx.big, "r"), Value(3));
  EXPECT_EQ(fx.cell(view, fx.mixed, "r"), Value(2.5));
  EXPECT_EQ(fx.cell(view, fx.big, "s"), Value("x"));
  EXPECT_EQ(fx.cell(view, fx.mixed, "s"), Value("y"));  // DB2 fills it
  EXPECT_EQ(fx.cell(view, fx.mixed, "n"), Value(4));
  EXPECT_EQ(fx.cell(view, fx.big, "b"), Value(true));
  EXPECT_EQ(fx.cell(view, fx.mixed, "b"), Value(false));
  EXPECT_TRUE(fx.cell(view, fx.foreign, "b").is_null());
  // References: to Q, into P's extent, to an unmapped LOid (null), and from
  // DB2 to DB1's object (the mirror cannot name it; the cell still does).
  EXPECT_EQ(fx.cell(view, fx.big, "q"), Value(GlobalRef{fx.q1}));
  EXPECT_EQ(fx.cell(view, fx.foreign, "q"), Value(GlobalRef{fx.big}));
  EXPECT_TRUE(fx.cell(view, fx.unmapped, "q").is_null());
  EXPECT_EQ(fx.cell(view, fx.from_db2, "q"), Value(GlobalRef{fx.q1}));
}

TEST(MaterializerColumns, TargetsAndNavigationStayExact) {
  const EdgeFixture fx;
  GlobalQuery q;
  q.range_class = "P";
  q.select("n").select("r").select("q.n");
  q.where("q.n", CompOp::Eq, 7);
  const MaterializedView view =
      materialize(*fx.federation, classes_involved(fx.federation->schema(), q));
  const QueryResult result = evaluate_global(view, fx.federation->schema(), q);
  const ResultRow* big = result.find(fx.big);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->status, ResultStatus::Certain);
  EXPECT_EQ(big->targets[0], Value(EdgeFixture::kBig));
  EXPECT_EQ(big->targets[1], Value(3));
  EXPECT_EQ(big->targets[2], Value(7));
  // A reference into P's extent dangles at the referrer, step 0; so does
  // one to an unmapped LOid (its cell is null).
  for (const GOid entity : {fx.foreign, fx.unmapped}) {
    const ResultRow* row = result.find(entity);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->status, ResultStatus::Maybe);
    const std::vector<CondAtom> atoms = row->condition.atoms();
    ASSERT_EQ(atoms.size(), 1u);
    EXPECT_EQ(atoms[0].item, entity);
    EXPECT_EQ(atoms[0].step, 0u);
    EXPECT_TRUE(atoms[0].root_level);
  }
}

TEST(MaterializerColumns, ExcludedSiteContributesNothing) {
  const EdgeFixture fx;
  AccessMeter meter;
  const std::set<DbId> dead{DbId{2}};
  const MaterializedView view = materialize(
      *fx.federation, {"P"}, &meter, MergePolicy::FirstNonNull, &dead);
  // The entity stays; DB2's values do not arrive.
  ASSERT_EQ(view.extent("P").size(), 4u);
  EXPECT_TRUE(fx.cell(view, fx.mixed, "n").is_null());
  EXPECT_TRUE(fx.cell(view, fx.mixed, "s").is_null());
  EXPECT_EQ(meter.comparisons, 4u);  // DB1's four P objects only
  EXPECT_EQ(meter.objects_fetched, 4u);
  // big -> q1, foreign -> big, unmapped -> Junk: one probe each.
  EXPECT_EQ(meter.table_probes, 3u);
}

TEST(MaterializerColumns, ProjectionKeepsListedAttributesAndEveryReference) {
  const EdgeFixture fx;
  const AttributeProjection project{{"P", {fx.attr("s")}}};
  AccessMeter full_meter, projected_meter;
  (void)materialize(*fx.federation, {"P"}, &full_meter);
  const MaterializedView view =
      materialize(*fx.federation, {"P"}, &projected_meter,
                  MergePolicy::FirstNonNull, nullptr, &project);
  const MaterializedExtent& ps = view.extent("P");
  EXPECT_TRUE(ps.projected(fx.attr("s")));
  EXPECT_TRUE(ps.projected(fx.attr("q")));
  EXPECT_FALSE(ps.projected(fx.attr("n")));
  EXPECT_FALSE(ps.projected(fx.attr("b")));
  EXPECT_EQ(projected_meter, full_meter);
  EXPECT_EQ(fx.cell(view, fx.mixed, "s"), Value("y"));
}

TEST(MaterializerColumns, CentralizedRewriteProbesIncludeUnshippedReferences) {
  // A 2-class chain whose second class carries no predicate: CA_C1 ships
  // P's `n` only, yet CA_G2 charges a goid-mapping probe for each `q` it
  // rewrites (the decision is recorded in ROADMAP item 6).
  const EdgeFixture fx;
  GlobalQuery q;
  q.range_class = "P";
  q.select("n");
  q.where("n", CompOp::Ge, 0);
  const AttributeProjection shipped =
      involved_attributes(fx.federation->schema(), q);
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(shipped.at("P").count(fx.attr("q")), 0u);
  const StrategyReport report =
      execute_strategy(StrategyKind::CA, *fx.federation, q);
  // big -> q1, foreign -> big, unmapped -> Junk from DB1; DB2's `q` fills
  // the empty cell of `mixed`: four probes, for a column never shipped.
  EXPECT_EQ(report.work.table_probes, 4u);
}

TEST(MaterializerColumns, ConcurrentOuterjoinsShareTheMirrors) {
  // The outerjoin requests mirror columns; on a fresh federation every
  // thread races to build them first. Each must read the same view.
  const paper::UniversityExample example = paper::make_university();
  const Federation& fed = *example.federation;
  const GlobalQuery q1 = paper::q1();
  const std::vector<std::string> classes = classes_involved(fed.schema(), q1);
  std::vector<QueryResult> results(4);
  std::vector<std::thread> threads;
  for (QueryResult& result : results)
    threads.emplace_back([&] {
      result = evaluate_global(materialize(fed, classes), fed.schema(), q1);
    });
  for (std::thread& thread : threads) thread.join();
  for (const QueryResult& result : results) EXPECT_EQ(result, results[0]);
  EXPECT_EQ(results[0], reference_answer(fed, q1));
}

TEST(QueryResult, Helpers) {
  QueryResult result;
  result.rows.push_back(ResultRow{GOid{2}, ResultStatus::Maybe, {}});
  result.rows.push_back(ResultRow{GOid{1}, ResultStatus::Certain, {}});
  result.normalize();
  EXPECT_EQ(result.rows[0].entity, GOid{1});
  EXPECT_EQ(result.certain_count(), 1u);
  EXPECT_EQ(result.maybe_count(), 1u);
  EXPECT_NE(result.find(GOid{2}), nullptr);
  EXPECT_EQ(result.find(GOid{3}), nullptr);
}

}  // namespace
}  // namespace isomer
