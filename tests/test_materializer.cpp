// The centralized path: outerjoin materialization and global evaluation.
#include <gtest/gtest.h>

#include "isomer/common/error.hpp"
#include "isomer/federation/materializer.hpp"
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
  EXPECT_FALSE(view.has_extent("Teacher"));
  EXPECT_THROW((void)view.extent("Teacher"), FederationError);
}

TEST_F(MaterializerFixture, MissingValuesFilledFromIsomers) {
  const MaterializedView view = materialize(fed(), {"Student"});
  // s2' (DB2) has no age attribute; its isomer s1 (DB1) supplies 31.
  const MaterializedObject* john =
      view.extent("Student").find(example_.entity(example_.ids.s1));
  ASSERT_NE(john, nullptr);
  const auto age =
      fed().schema().cls("Student").def().find_attribute("age");
  EXPECT_EQ(john->values[*age], Value(31));
  // sex is null in DB1 and male in DB2: first non-null wins.
  const auto sex =
      fed().schema().cls("Student").def().find_attribute("sex");
  EXPECT_EQ(john->values[*sex], Value("male"));
}

TEST_F(MaterializerFixture, FindMissesForeignAndUnassignedGOids) {
  const MaterializedView view = materialize(fed(), {"Student", "Teacher"});
  const MaterializedExtent& students = view.extent("Student");
  EXPECT_EQ(students.find(GOid{0}), nullptr);
  const std::uint64_t entities = fed().goids().entity_count();
  EXPECT_EQ(students.find(GOid{entities + 1}), nullptr);
  EXPECT_EQ(students.find(GOid{entities + 1000}), nullptr);
  // A teacher's class position indexes a student slot too; the id check
  // keeps it from answering for another class.
  const GOid teacher = example_.entity(example_.ids.t1);
  ASSERT_NE(view.extent("Teacher").find(teacher), nullptr);
  EXPECT_EQ(students.find(teacher), nullptr);
  for (const GOid student : fed().goids().entities_of("Student")) {
    const MaterializedObject* obj = students.find(student);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->id, student);
  }
}

TEST_F(MaterializerFixture, RefsRewrittenToGOids) {
  const MaterializedView view = materialize(fed(), {"Teacher"});
  const MaterializedObject* jeffery =
      view.extent("Teacher").find(example_.entity(example_.ids.t1));
  const auto dept =
      fed().schema().cls("Teacher").def().find_attribute("department");
  EXPECT_EQ(jeffery->values[*dept],
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
