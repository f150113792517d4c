// The query AST and three-valued evaluation over a component database.
#include <gtest/gtest.h>

#include "isomer/common/error.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/query/printer.hpp"
#include "isomer/schema/integrator.hpp"

namespace isomer {
namespace {

/// A small school federation with deliberate missing data at DB1:
///  - t_nodept has a null department,
///  - t_dangling references a department that does not exist,
///  - nameless has no name,
///  - DB1's Teacher lacks the `speciality` attribute and its Department the
///    `head` attribute, which DB2's constituents define.
/// Evaluation goes through the bound evaluator at DB1.
class EvalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ComponentSchema schema1(DbId{1}, "DB1");
    schema1.add_class("Department")
        .add_attribute("name", PrimType::String)
        .add_attribute("budget", PrimType::Int);
    schema1.add_class("Teacher")
        .add_attribute("name", PrimType::String)
        .add_attribute("department", ComplexType{"Department"})
        .add_attribute("committees", ComplexType{"Department", true});
    auto db1 = std::make_unique<ComponentDatabase>(std::move(schema1));
    cs_ = db1->insert("Department", {{"name", "CS"}, {"budget", 100}});
    ee_ = db1->insert("Department", {{"name", "EE"}, {"budget", 50}});
    t_cs_ = db1->insert("Teacher",
                        {{"name", "Ann"}, {"department", LocalRef{cs_}}});
    t_nodept_ = db1->insert("Teacher", {{"name", "Bob"}});
    t_dangling_ = db1->insert(
        "Teacher",
        {{"name", "Cid"}, {"department", LocalRef{LOid{DbId{1}, 999}}}});
    t_committees_ = db1->insert(
        "Teacher", {{"name", "Dot"}, {"committees", LocalRefSet{{ee_, cs_}}}});
    nameless_ = db1->insert("Teacher", {});

    ComponentSchema schema2(DbId{2}, "DB2");
    schema2.add_class("Department")
        .add_attribute("name", PrimType::String)
        .add_attribute("head", PrimType::String);
    schema2.add_class("Teacher")
        .add_attribute("name", PrimType::String)
        .add_attribute("speciality", PrimType::String);
    auto db2 = std::make_unique<ComponentDatabase>(std::move(schema2));

    IntegrationSpec spec;
    for (const char* name : {"Department", "Teacher"})
      spec.add_class(name).constituents = {Constituent{DbId{1}, name},
                                           Constituent{DbId{2}, name}};
    GlobalSchema global = integrate({&db1->schema(), &db2->schema()}, spec);

    GoidTable goids;
    for (const LOid id : {cs_, ee_})
      goids.register_entity("Department", {id});
    for (const LOid id :
         {t_cs_, t_nodept_, t_dangling_, t_committees_, nameless_})
      goids.register_entity("Teacher", {id});

    std::vector<std::unique_ptr<ComponentDatabase>> databases;
    databases.push_back(std::move(db1));
    databases.push_back(std::move(db2));
    fed_ = std::make_unique<Federation>(std::move(global),
                                        std::move(databases), std::move(goids));
  }

  const Object& obj(LOid id) { return *fed_->db(DbId{1}).fetch(id); }

  /// Evaluates one Teacher predicate from `step` on `root` at DB1.
  LocalPredOutcome eval(LOid root, const char* path, CompOp op, Value literal,
                        AccessMeter* meter = nullptr, std::size_t step = 0) {
    GlobalQuery query;
    query.range_class = "Teacher";
    query.where(path, op, std::move(literal));
    const BoundQuery bound(*fed_, query);
    return bound.eval_predicate(bound.site(DbId{1}), 0, obj(root), step,
                                meter);
  }

  /// Evaluates one Teacher target path on `root` at DB1.
  Value target(LOid root, const char* path) {
    GlobalQuery query;
    query.range_class = "Teacher";
    query.select(path);
    const BoundQuery bound(*fed_, query);
    return bound.eval_target(bound.site(DbId{1}), 0, obj(root));
  }

  /// The DB1 row of `root` under `query`; nullptr when eliminated.
  static const LocalRow* row_of(const LocalExecution& exec, LOid root) {
    for (const LocalRow& row : exec.rows)
      if (row.root == root) return &row;
    return nullptr;
  }

  std::unique_ptr<Federation> fed_;
  LOid cs_, ee_, t_cs_, t_nodept_, t_dangling_, t_committees_, nameless_;
};

TEST_F(EvalFixture, SimplePredicate) {
  EXPECT_EQ(eval(t_cs_, "name", CompOp::Eq, "Ann").truth, Truth::True);
  EXPECT_EQ(eval(t_cs_, "name", CompOp::Eq, "Zed").truth, Truth::False);
}

TEST_F(EvalFixture, NestedPredicate) {
  EXPECT_EQ(eval(t_cs_, "department.name", CompOp::Eq, "CS").truth,
            Truth::True);
  EXPECT_EQ(eval(t_cs_, "department.budget", CompOp::Gt, 200).truth,
            Truth::False);
}

TEST_F(EvalFixture, NullRefYieldsUnknownWithSite) {
  const LocalPredOutcome outcome =
      eval(t_nodept_, "department.name", CompOp::Eq, "CS");
  EXPECT_EQ(outcome.truth, Truth::Unknown);
  EXPECT_EQ(outcome.holder, t_nodept_);
  EXPECT_EQ(outcome.step, 0u);
}

TEST_F(EvalFixture, DanglingRefYieldsUnknown) {
  const LocalPredOutcome outcome =
      eval(t_dangling_, "department.name", CompOp::Eq, "CS");
  EXPECT_EQ(outcome.truth, Truth::Unknown);
  EXPECT_EQ(outcome.holder, t_dangling_);
  EXPECT_EQ(outcome.step, 0u);
}

TEST_F(EvalFixture, MissingAttributeYieldsUnknown) {
  // `speciality` is a global attribute DB1's Teacher does not define.
  const LocalPredOutcome outcome =
      eval(t_cs_, "speciality", CompOp::Eq, "db");
  EXPECT_EQ(outcome.truth, Truth::Unknown);
  EXPECT_EQ(outcome.holder, t_cs_);
  EXPECT_EQ(outcome.step, 0u);
}

TEST_F(EvalFixture, NullFinalValueYieldsUnknownAtFinalStep) {
  const LocalPredOutcome outcome = eval(nameless_, "name", CompOp::Eq, "Ann");
  EXPECT_EQ(outcome.truth, Truth::Unknown);
  EXPECT_EQ(outcome.holder, nameless_);
  EXPECT_EQ(outcome.step, 0u);
}

TEST_F(EvalFixture, RefSetHasExistentialSemantics) {
  // Dot sits on the EE and CS committees: exists one named CS.
  EXPECT_EQ(eval(t_committees_, "committees.name", CompOp::Eq, "CS").truth,
            Truth::True);
  EXPECT_EQ(eval(t_committees_, "committees.name", CompOp::Eq, "PH").truth,
            Truth::False);
}

TEST_F(EvalFixture, PredicateContractChecks) {
  // A null literal compares Unknown against every value (the kernels'
  // convention too); the site is the object holding the compared value.
  const LocalPredOutcome null_literal =
      eval(t_cs_, "name", CompOp::Eq, Value::null());
  EXPECT_EQ(null_literal.truth, Truth::Unknown);
  EXPECT_EQ(null_literal.holder, t_cs_);
  EXPECT_THROW((void)eval(t_cs_, "name.more", CompOp::Eq, "x"), QueryError)
      << "paths continuing past primitives are malformed at bind time";
  EXPECT_THROW((void)eval(t_cs_, "no_such_attr", CompOp::Eq, "x"), QueryError)
      << "a path naming no global attribute is malformed at bind time";
  EXPECT_THROW((void)eval(t_cs_, "name", CompOp::Eq, "Ann", nullptr, 1),
               ContractViolation)
      << "a start step past the path";
}

TEST_F(EvalFixture, ComparisonsAreMetered) {
  AccessMeter meter;
  (void)eval(t_cs_, "department.name", CompOp::Eq, "CS", &meter);
  EXPECT_EQ(meter.comparisons, 1u);
  EXPECT_EQ(meter.objects_fetched, 1u);  // the department
}

TEST_F(EvalFixture, ConjunctionCollectsAllUnknownSites) {
  GlobalQuery query;
  query.range_class = "Teacher";
  query.where("name", CompOp::Eq, "Bob")
      .where("department.name", CompOp::Eq, "CS")
      .where("speciality", CompOp::Eq, "db");
  const LocalExecution exec = run_local_query(*fed_, query, DbId{1});
  const LocalRow* row = row_of(exec, t_nodept_);
  ASSERT_NE(row, nullptr);
  EXPECT_FALSE(row->locally_certain());
  ASSERT_EQ(row->preds.size(), 3u);
  EXPECT_EQ(row->preds[0].truth, Truth::True);
  EXPECT_EQ(row->preds[1].truth, Truth::Unknown);
  EXPECT_EQ(row->preds[2].truth, Truth::Unknown);
  EXPECT_EQ(row->preds[1].item, row->entity);
  EXPECT_EQ(row->preds[2].item, row->entity);
}

TEST_F(EvalFixture, ConjunctionFalseDominates) {
  GlobalQuery query;
  query.range_class = "Teacher";
  query.where("name", CompOp::Eq, "NotBob")
      .where("speciality", CompOp::Eq, "db");
  const LocalExecution exec = run_local_query(*fed_, query, DbId{1});
  EXPECT_EQ(row_of(exec, t_nodept_), nullptr);
}

TEST_F(EvalFixture, EmptyConjunctionIsTrue) {
  GlobalQuery query;
  query.range_class = "Teacher";
  query.select("name");
  const LocalExecution exec = run_local_query(*fed_, query, DbId{1});
  const LocalRow* row = row_of(exec, t_cs_);
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->locally_certain());
}

TEST_F(EvalFixture, EvalPath) {
  EXPECT_EQ(target(t_cs_, "department.name"), Value("CS"));
  EXPECT_TRUE(target(t_nodept_, "department.name").is_null());
  EXPECT_TRUE(target(t_cs_, "speciality").is_null());
  // Reference targets arrive globalized.
  const auto cs_entity = fed_->goids().goid_of(cs_);
  ASSERT_TRUE(cs_entity.has_value());
  EXPECT_EQ(target(t_cs_, "department"), Value(GlobalRef{*cs_entity}));
}

TEST_F(EvalFixture, WalkPrefix) {
  // Evaluating from step 1 on the object the prefix reaches (an assistant
  // check's suffix) agrees with the whole path from its referrer and keeps
  // absolute step numbers.
  EXPECT_EQ(eval(cs_, "department.name", CompOp::Eq, "CS", nullptr, 1).truth,
            eval(t_cs_, "department.name", CompOp::Eq, "CS").truth);
  const LocalPredOutcome missing =
      eval(cs_, "department.head", CompOp::Eq, "Kim", nullptr, 1);
  EXPECT_EQ(missing.truth, Truth::Unknown);
  EXPECT_EQ(missing.holder, cs_);
  EXPECT_EQ(missing.step, 1u);
  EXPECT_EQ(eval(t_cs_, "department.head", CompOp::Eq, "Kim").step, 1u);
}

// --- operators ---

TEST(CompOp, AppliesAllOperators) {
  EXPECT_EQ(apply(CompOp::Eq, Value(1), Value(1)), Truth::True);
  EXPECT_EQ(apply(CompOp::Ne, Value(1), Value(1)), Truth::False);
  EXPECT_EQ(apply(CompOp::Lt, Value(1), Value(2)), Truth::True);
  EXPECT_EQ(apply(CompOp::Le, Value(2), Value(2)), Truth::True);
  EXPECT_EQ(apply(CompOp::Gt, Value(3), Value(2)), Truth::True);
  EXPECT_EQ(apply(CompOp::Ge, Value(1), Value(2)), Truth::False);
}

TEST(CompOp, NullPropagatesThroughAllOperators) {
  for (const CompOp op : {CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le,
                          CompOp::Gt, CompOp::Ge})
    EXPECT_EQ(apply(op, Value::null(), Value(1)), Truth::Unknown);
}

TEST(CompOp, Names) {
  EXPECT_EQ(to_string(CompOp::Eq), "=");
  EXPECT_EQ(to_string(CompOp::Ne), "<>");
  EXPECT_EQ(to_string(CompOp::Ge), ">=");
}

// --- builders and printing ---

TEST(GlobalQueryBuilder, FluentConstruction) {
  GlobalQuery query;
  query.range_class = "Student";
  query.select("name").select("advisor.name");
  query.where("age", CompOp::Ge, 21);
  ASSERT_EQ(query.targets.size(), 2u);
  ASSERT_EQ(query.predicates.size(), 1u);
  EXPECT_EQ(query.predicates[0].path.dotted(), "age");
  EXPECT_EQ(to_sqlx(query),
            "Select X.name, X.advisor.name From Student X Where X.age>=21");
}

TEST(GlobalQueryBuilder, NoPredicates) {
  GlobalQuery query;
  query.range_class = "Student";
  query.select("name");
  EXPECT_EQ(to_sqlx(query), "Select X.name From Student X");
}

}  // namespace
}  // namespace isomer
