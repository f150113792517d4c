// Multi-valued complex attributes — the paper's §5 third future-work item:
// a global set-valued attribute whose members come from different component
// databases, merged by union in the centralized materializer.
#include <gtest/gtest.h>

#include "isomer/core/strategy.hpp"
#include "isomer/fault/degrade.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/integrator.hpp"

namespace isomer {
namespace {

/// Two research databases: each knows *some* of a professor's projects.
struct ProjectsFixture {
  std::unique_ptr<Federation> federation;
  LOid prof1, prof2, pa, pb, pc;
  GOid gprof, gpa, gpb, gpc;

  ProjectsFixture() {
    ComponentSchema s1(DbId{1}, "DB1");
    s1.add_class("Project").add_attribute("title", PrimType::String);
    s1.add_class("Prof")
        .add_attribute("name", PrimType::String)
        .add_attribute("projects", ComplexType{"Project", true});
    ComponentSchema s2(DbId{2}, "DB2");
    s2.add_class("Project").add_attribute("title", PrimType::String);
    s2.add_class("Prof")
        .add_attribute("name", PrimType::String)
        .add_attribute("projects", ComplexType{"Project", true});

    auto db1 = std::make_unique<ComponentDatabase>(std::move(s1));
    auto db2 = std::make_unique<ComponentDatabase>(std::move(s2));
    pa = db1->insert("Project", {{"title", "alpha"}});
    pb = db1->insert("Project", {{"title", "beta"}});
    prof1 = db1->insert(
        "Prof", {{"name", "Ada"}, {"projects", LocalRefSet{{pa, pb}}}});
    pc = db2->insert("Project", {{"title", "gamma"}});
    // DB2 also knows beta, under its own LOid.
    const LOid pb2 = db2->insert("Project", {{"title", "beta"}});
    prof2 = db2->insert(
        "Prof", {{"name", "Ada"}, {"projects", LocalRefSet{{pc, pb2}}}});

    IntegrationSpec spec;
    ClassSpec& prof = spec.add_class("Prof");
    prof.constituents = {{DbId{1}, "Prof"}, {DbId{2}, "Prof"}};
    prof.identity_attribute = "name";
    ClassSpec& project = spec.add_class("Project");
    project.constituents = {{DbId{1}, "Project"}, {DbId{2}, "Project"}};
    project.identity_attribute = "title";
    GlobalSchema schema = integrate({&db1->schema(), &db2->schema()}, spec);

    GoidTable goids;
    gprof = goids.register_entity("Prof", {prof1, prof2});
    gpa = goids.register_entity("Project", {pa});
    gpb = goids.register_entity("Project", {pb, pb2});
    gpc = goids.register_entity("Project", {pc});

    std::vector<std::unique_ptr<ComponentDatabase>> dbs;
    dbs.push_back(std::move(db1));
    dbs.push_back(std::move(db2));
    federation = std::make_unique<Federation>(std::move(schema),
                                              std::move(dbs),
                                              std::move(goids));
  }
};

TEST(MultiValued, FirstNonNullTakesOneDatabasesView) {
  const ProjectsFixture fix;
  const MaterializedView view = materialize(*fix.federation, {"Prof"});
  const MaterializedExtent& profs = view.extent("Prof");
  const auto ada = profs.position(fix.gprof);
  ASSERT_TRUE(ada.has_value());
  const auto projects =
      fix.federation->schema().cls("Prof").def().find_attribute("projects");
  // DB1's set wins wholesale: {alpha, beta}.
  EXPECT_EQ(profs.cell(*ada, *projects),
            Value(GlobalRefSet{{fix.gpa, fix.gpb}}));
}

TEST(MultiValued, UnionSetsMergesAcrossDatabases) {
  const ProjectsFixture fix;
  const MaterializedView view = materialize(
      *fix.federation, {"Prof"}, nullptr, MergePolicy::UnionSets);
  const MaterializedExtent& profs = view.extent("Prof");
  const auto ada = profs.position(fix.gprof);
  ASSERT_TRUE(ada.has_value());
  const auto projects =
      fix.federation->schema().cls("Prof").def().find_attribute("projects");
  // Union over isomers, deduplicated through the GOid space: beta appears
  // once even though both databases store it under different LOids.
  GlobalRefSet expected{{fix.gpa, fix.gpb, fix.gpc}};
  std::sort(expected.targets.begin(), expected.targets.end());
  EXPECT_EQ(profs.cell(*ada, *projects), Value(expected));
}

TEST(MultiValued, UnionEnablesCrossDatabaseExistentialQueries) {
  const ProjectsFixture fix;
  GlobalQuery q;
  q.range_class = "Prof";
  q.select("name");
  q.where("projects.title", CompOp::Eq, "gamma");

  // Under first-non-null the merged set lacks gamma: Ada is eliminated.
  {
    const MaterializedView view = materialize(
        *fix.federation, classes_involved(fix.federation->schema(), q));
    const QueryResult result =
        evaluate_global(view, fix.federation->schema(), q);
    EXPECT_EQ(result.find(fix.gprof), nullptr);
  }
  // Under union merge DB2's gamma membership surfaces: Ada matches.
  {
    const MaterializedView view = materialize(
        *fix.federation, classes_involved(fix.federation->schema(), q),
        nullptr, MergePolicy::UnionSets);
    const QueryResult result =
        evaluate_global(view, fix.federation->schema(), q);
    const ResultRow* ada = result.find(fix.gprof);
    ASSERT_NE(ada, nullptr);
    EXPECT_EQ(ada->status, ResultStatus::Certain);
  }
}

TEST(MultiValued, ConsistencyCheckerComparesSetsByEntity) {
  const ProjectsFixture fix;
  // DB1 {alpha,beta} vs DB2 {gamma,beta}: different sets -> flagged. This
  // documents that union-merged federations are intentionally outside the
  // strict-consistency regime the strategy-equivalence guarantee needs.
  EXPECT_FALSE(fix.federation->check_consistency().empty());
}

/// One database whose professors' project sets are empty, hold a dangling
/// member, or name the project the query asks for.
struct OneDatabaseSets {
  std::unique_ptr<Federation> federation;
  GOid empty, dangling, zeta;

  OneDatabaseSets() {
    ComponentSchema s1(DbId{1}, "DB1");
    s1.add_class("Project").add_attribute("title", PrimType::String);
    s1.add_class("Prof")
        .add_attribute("name", PrimType::String)
        .add_attribute("projects", ComplexType{"Project", true});
    auto db1 = std::make_unique<ComponentDatabase>(std::move(s1));
    const LOid alpha = db1->insert("Project", {{"title", "alpha"}});
    const LOid zeta_project = db1->insert("Project", {{"title", "zeta"}});
    const LOid gone{DbId{1}, 1000};  // no object has this LOid
    const LOid ann =
        db1->insert("Prof", {{"name", "Ann"}, {"projects", LocalRefSet{}}});
    const LOid bob = db1->insert(
        "Prof", {{"name", "Bob"}, {"projects", LocalRefSet{{gone, alpha}}}});
    const LOid cy = db1->insert(
        "Prof", {{"name", "Cy"}, {"projects", LocalRefSet{{zeta_project}}}});

    IntegrationSpec spec;
    spec.add_class("Prof").constituents = {{DbId{1}, "Prof"}};
    spec.add_class("Project").constituents = {{DbId{1}, "Project"}};
    GlobalSchema schema = integrate({&db1->schema()}, spec);

    GoidTable goids;
    empty = goids.register_entity("Prof", {ann});
    dangling = goids.register_entity("Prof", {bob});
    zeta = goids.register_entity("Prof", {cy});
    (void)goids.register_entity("Project", {alpha});
    (void)goids.register_entity("Project", {zeta_project});

    std::vector<std::unique_ptr<ComponentDatabase>> dbs;
    dbs.push_back(std::move(db1));
    federation = std::make_unique<Federation>(
        std::move(schema), std::move(dbs), std::move(goids));
  }
};

TEST(MultiValued, EmptyAndDanglingSetsReadAlikeInEveryStrategy) {
  // An empty set is a known value: the OR over no members is False. A
  // dangling member is an unknown value, Unknown at the referrer. The view
  // the centralized approach evaluates must read both as the component
  // database does.
  const OneDatabaseSets fix;
  GlobalQuery q;
  q.range_class = "Prof";
  q.select("name");
  q.select("projects");
  q.where("projects.title", CompOp::Eq, "zeta");

  const QueryResult reference = reference_answer(*fix.federation, q);
  EXPECT_EQ(reference.find(fix.empty), nullptr);
  const ResultRow* bob = reference.find(fix.dangling);
  ASSERT_NE(bob, nullptr);
  EXPECT_EQ(bob->status, ResultStatus::Maybe);
  EXPECT_EQ(bob->condition.atoms(),
            (std::vector<CondAtom>{{fix.dangling, 0, 0, true}}));
  const ResultRow* cy = reference.find(fix.zeta);
  ASSERT_NE(cy, nullptr);
  EXPECT_EQ(cy->status, ResultStatus::Certain);
  // The dangling member is no part of the target value.
  ASSERT_EQ(bob->targets.size(), 2u);
  EXPECT_EQ(bob->targets[1].as_global_ref_set().size(), 1u);

  for (const StrategyKind kind : kPaperStrategies)
    EXPECT_EQ(execute_strategy(kind, *fix.federation, q).result, reference)
        << to_string(kind);
}

TEST(MultiValued, DegradedTaggingWalksPastDanglingMembers) {
  // Rule (b) of unavailability tagging walks the live view. A dangling
  // member (GOid 0 there) names no entity a dead site could describe, so
  // the walk skips it rather than asking the GOid table about it.
  ComponentSchema s1(DbId{1}, "DB1");
  s1.add_class("Project").add_attribute("title", PrimType::String);
  s1.add_class("Prof")
      .add_attribute("name", PrimType::String)
      .add_attribute("projects", ComplexType{"Project", true});
  ComponentSchema s2(DbId{2}, "DB2");
  s2.add_class("Project").add_attribute("title", PrimType::String);
  auto db1 = std::make_unique<ComponentDatabase>(std::move(s1));
  auto db2 = std::make_unique<ComponentDatabase>(std::move(s2));
  const LOid alpha = db1->insert("Project", {{"title", "alpha"}});
  const LOid alpha2 = db2->insert("Project", {{"title", "alpha"}});
  const LOid ann = db1->insert(
      "Prof", {{"name", "Ann"},
               {"projects", LocalRefSet{{LOid{DbId{1}, 1000}, alpha}}}});

  IntegrationSpec spec;
  spec.add_class("Prof").constituents = {{DbId{1}, "Prof"}};
  ClassSpec& project = spec.add_class("Project");
  project.constituents = {{DbId{1}, "Project"}, {DbId{2}, "Project"}};
  project.identity_attribute = "title";
  GlobalSchema schema = integrate({&db1->schema(), &db2->schema()}, spec);
  GoidTable goids;
  const GOid gann = goids.register_entity("Prof", {ann});
  (void)goids.register_entity("Project", {alpha, alpha2});
  std::vector<std::unique_ptr<ComponentDatabase>> dbs;
  dbs.push_back(std::move(db1));
  dbs.push_back(std::move(db2));
  const Federation fed(std::move(schema), std::move(dbs), std::move(goids));

  GlobalQuery q;
  q.range_class = "Prof";
  q.where("projects.title", CompOp::Eq, "zeta");
  const QueryResult result = fault::degraded_reference(fed, q, {DbId{2}});
  const ResultRow* row = result.find(gann);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->status, ResultStatus::Maybe);
  // DB2 holds nothing the walk stalls on: Ann's root is in DB1, and alpha's
  // title is known there.
  EXPECT_FALSE(row->unavailable);
}

}  // namespace
}  // namespace isomer
