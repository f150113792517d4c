// End-to-end reproduction of the paper's running example (Figures 1-8).
#include <gtest/gtest.h>

#include "isomer/core/strategy.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/query/printer.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/workload/paper_example.hpp"

namespace isomer {
namespace {

class PaperExample : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = paper::make_university();
    query_ = paper::q1();
  }

  paper::UniversityExample example_;
  GlobalQuery query_;

  const Federation& fed() const { return *example_.federation; }
  GOid g(LOid id) const { return example_.entity(id); }

  /// The executing flow of Q1 under `kind`, read from its phase spans.
  std::vector<Phase> phase_order(StrategyKind kind) const {
    obs::TraceSession session;
    StrategyOptions options;
    options.trace_session = &session;
    (void)execute_strategy(kind, fed(), query_, options);
    return session.phase_order();
  }
};

// --- Figure 2: the constructed global schema.

TEST_F(PaperExample, GlobalStudentHasUnionOfAttributes) {
  const GlobalClass& student = fed().schema().cls("Student");
  for (const char* attr :
       {"s-no", "name", "age", "advisor", "sex", "address"})
    EXPECT_TRUE(student.def().has_attribute(attr)) << attr;
  EXPECT_EQ(student.def().attribute_count(), 6u);
}

TEST_F(PaperExample, GlobalTeacherHasUnionOfAttributes) {
  const GlobalClass& teacher = fed().schema().cls("Teacher");
  for (const char* attr : {"name", "department", "speciality"})
    EXPECT_TRUE(teacher.def().has_attribute(attr)) << attr;
  EXPECT_EQ(teacher.def().attribute_count(), 3u);
}

TEST_F(PaperExample, MissingAttributesMatchPaper) {
  // DB1: Student misses address; Teacher misses speciality.
  const GlobalClass& student = fed().schema().cls("Student");
  const auto s1 = student.constituent_in(DbId{1});
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(student.missing_attributes(*s1),
            std::vector<std::string>{"address"});

  const GlobalClass& teacher = fed().schema().cls("Teacher");
  const auto t1 = teacher.constituent_in(DbId{1});
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(teacher.missing_attributes(*t1),
            std::vector<std::string>{"speciality"});

  // DB2: Student misses age; Teacher misses department.
  const auto s2 = student.constituent_in(DbId{2});
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(student.missing_attributes(*s2), std::vector<std::string>{"age"});
  const auto t2 = teacher.constituent_in(DbId{2});
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(teacher.missing_attributes(*t2),
            std::vector<std::string>{"department"});

  // DB3: Teacher misses speciality.
  const auto t3 = teacher.constituent_in(DbId{3});
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(teacher.missing_attributes(*t3),
            std::vector<std::string>{"speciality"});
}

TEST_F(PaperExample, FederationIsConsistent) {
  EXPECT_TRUE(fed().check_consistency().empty());
}

// --- Figure 3: Q1 and the derived local queries.

TEST_F(PaperExample, Q1RendersAsSqlX) {
  EXPECT_EQ(to_sqlx(query_),
            "Select X.name, X.advisor.name From Student X"
            " Where X.address.city=Taipei and X.advisor.speciality=database"
            " and X.advisor.department.name=CS");
}

TEST_F(PaperExample, LocalQueryForDb1MatchesQ1Prime) {
  // Q1': only advisor.department.name survives locally; address and
  // advisor.speciality are unsolved; X.advisor is projected as the unsolved
  // item path.
  const auto local = derive_local_query(fed().schema(), query_, DbId{1});
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->root_class, "Student");
  ASSERT_EQ(local->local_predicates.size(), 1u);
  EXPECT_EQ(local->local_predicates[0].path.dotted(),
            "advisor.department.name");
  ASSERT_EQ(local->unsolved_predicates.size(), 2u);
  EXPECT_EQ(local->unsolved_predicates[0].original.path.dotted(),
            "address.city");
  EXPECT_EQ(local->unsolved_predicates[0].remaining.dotted(), "address.city");
  EXPECT_EQ(local->unsolved_predicates[1].original.path.dotted(),
            "advisor.speciality");
  EXPECT_EQ(local->unsolved_predicates[1].item_prefix.dotted(), "advisor");
  EXPECT_EQ(local->unsolved_predicates[1].remaining.dotted(), "speciality");
  ASSERT_EQ(local->unsolved_item_paths.size(), 1u);
  EXPECT_EQ(local->unsolved_item_paths[0].dotted(), "advisor");
}

TEST_F(PaperExample, LocalQueryForDb2MatchesQ1DoublePrime) {
  // Q1'': address.city and advisor.speciality stay; advisor.department.name
  // is unsolved with item X.advisor.
  const auto local = derive_local_query(fed().schema(), query_, DbId{2});
  ASSERT_TRUE(local.has_value());
  ASSERT_EQ(local->local_predicates.size(), 2u);
  EXPECT_EQ(local->local_predicates[0].path.dotted(), "address.city");
  EXPECT_EQ(local->local_predicates[1].path.dotted(), "advisor.speciality");
  ASSERT_EQ(local->unsolved_predicates.size(), 1u);
  EXPECT_EQ(local->unsolved_predicates[0].remaining.dotted(),
            "department.name");
  ASSERT_EQ(local->unsolved_item_paths.size(), 1u);
  EXPECT_EQ(local->unsolved_item_paths[0].dotted(), "advisor");
}

TEST_F(PaperExample, Db3GetsNoLocalQuery) {
  // DB3 holds no Student constituent.
  EXPECT_FALSE(derive_local_query(fed().schema(), query_, DbId{3}).has_value());
  const auto homes = local_query_sites(fed().schema(), query_);
  EXPECT_EQ(homes, (std::vector<DbId>{DbId{1}, DbId{2}}));
}

// --- Figure 6: materialized global classes.

TEST_F(PaperExample, MaterializedStudentMatchesFigure6) {
  const auto view = materialize(fed(), {"Student", "Teacher", "Department",
                                        "Address"});
  const MaterializedExtent& students = view.extent("Student");
  EXPECT_EQ(students.size(), 5u);

  // gs1 (John): age 31 from DB1, address from DB2 — the outerjoin fills
  // missing data from isomeric objects (s2' gains age 31 from s1).
  const auto john = students.position(g(example_.ids.s1));
  ASSERT_TRUE(john.has_value());
  const ClassDef& def = fed().schema().cls("Student").def();
  const auto value = [&](std::size_t pos, const char* attr) {
    return students.cell(pos, *def.find_attribute(attr));
  };
  EXPECT_EQ(value(*john, "name"), Value("John"));
  EXPECT_EQ(value(*john, "age"), Value(31));
  EXPECT_EQ(value(*john, "sex"), Value("male"));  // null in DB1, male in DB2
  EXPECT_EQ(value(*john, "address"),
            Value(GlobalRef{g(example_.ids.a2p)}));
  EXPECT_EQ(value(*john, "advisor"), Value(GlobalRef{g(example_.ids.t1)}));

  // gs2 (Tony): address stays null — no isomeric object provides it.
  const auto tony = students.position(g(example_.ids.s2));
  ASSERT_TRUE(tony.has_value());
  EXPECT_TRUE(value(*tony, "address").is_null());

  // gt4 (Kelly): department from DB3, speciality from DB2.
  const MaterializedExtent& teachers = view.extent("Teacher");
  const auto kelly = teachers.position(g(example_.ids.t1p));
  ASSERT_TRUE(kelly.has_value());
  const ClassDef& tdef = fed().schema().cls("Teacher").def();
  EXPECT_EQ(teachers.cell(*kelly, *tdef.find_attribute("speciality")),
            Value("database"));
  EXPECT_EQ(teachers.cell(*kelly, *tdef.find_attribute("department")),
            Value(GlobalRef{g(example_.ids.d1)}));
}

// --- Figure 7 / §2.2: the query answers.

void expect_paper_answer(const PaperExample* t, const QueryResult& result,
                         const paper::UniversityExample& example) {
  (void)t;
  ASSERT_EQ(result.rows.size(), 2u);
  const ResultRow* hedy = result.find(example.entity(example.ids.s1p));
  ASSERT_NE(hedy, nullptr);
  EXPECT_EQ(hedy->status, ResultStatus::Certain);
  ASSERT_EQ(hedy->targets.size(), 2u);
  EXPECT_EQ(hedy->targets[0], Value("Hedy"));
  EXPECT_EQ(hedy->targets[1], Value("Kelly"));

  const ResultRow* tony = result.find(example.entity(example.ids.s2));
  ASSERT_NE(tony, nullptr);
  EXPECT_EQ(tony->status, ResultStatus::Maybe);
  ASSERT_EQ(tony->targets.size(), 2u);
  EXPECT_EQ(tony->targets[0], Value("Tony"));
  EXPECT_EQ(tony->targets[1], Value("Haley"));
}

TEST_F(PaperExample, ReferenceAnswerIsHedyCertainTonyMaybe) {
  expect_paper_answer(this, reference_answer(fed(), query_), example_);
}

class PaperExampleStrategies
    : public PaperExample,
      public ::testing::WithParamInterface<StrategyKind> {};

TEST_P(PaperExampleStrategies, ProducesThePaperAnswer) {
  const StrategyReport report = execute_strategy(GetParam(), fed(), query_);
  expect_paper_answer(this, report.result, example_);
  EXPECT_GT(report.response_ns, 0);
  EXPECT_GE(report.total_ns, report.response_ns);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PaperExampleStrategies,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- Figure 8: executing flows (phase orders).

TEST_F(PaperExample, CaPhaseOrderIsOIP) {
  EXPECT_EQ(phase_order(StrategyKind::CA),
            (std::vector<Phase>{Phase::O, Phase::I, Phase::P}));
}

TEST_F(PaperExample, BlPhaseOrderIsPOI) {
  EXPECT_EQ(phase_order(StrategyKind::BL),
            (std::vector<Phase>{Phase::P, Phase::O, Phase::I}));
}

TEST_F(PaperExample, PlPhaseOrderIsOPI) {
  EXPECT_EQ(phase_order(StrategyKind::PL),
            (std::vector<Phase>{Phase::O, Phase::P, Phase::I}));
}

// Note: on this 3-objects-per-extent illustration the centralized approach's
// single round trip actually finishes first — the localized advantage the
// paper measures (§4.2) needs realistically sized extents, and is asserted
// in test_paper_shapes.cpp over Table-2 workloads.

}  // namespace
}  // namespace isomer
