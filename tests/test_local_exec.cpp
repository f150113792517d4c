// Local execution: the translation-aware evaluator, row construction, and
// its consistency with the protocol-level LocalQuery derivation.
#include <gtest/gtest.h>

#include "eval_oracle.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

class LocalExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = paper::make_university();
    query_ = paper::q1();
  }
  const Federation& fed() { return *example_.federation; }
  paper::UniversityExample example_;
  GlobalQuery query_;
};

TEST_F(LocalExecFixture, RowsCarryGlobalizedTargets) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  for (const LocalRow& row : exec.rows) {
    ASSERT_EQ(row.targets.size(), 2u);
    // advisor.name is a primitive target; values arrive as strings.
    if (!row.targets[1].is_null())
      EXPECT_EQ(row.targets[1].kind(), ValueKind::String);
  }
}

TEST_F(LocalExecFixture, MeterAccountsScanAndNavigation) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  EXPECT_EQ(exec.meter.objects_scanned, 3u);  // the Student extent
  EXPECT_GT(exec.meter.objects_fetched, 0u);  // advisors, departments
  EXPECT_GT(exec.meter.comparisons, 0u);
  EXPECT_GT(exec.meter.table_probes, 0u);  // row entity lookups
}

TEST_F(LocalExecFixture, BufferPoolFetchesEachObjectOnce) {
  // Students s1 and s2 share no advisor, but each advisor's department is
  // d1 for both t1 and t3 — with the per-execution buffer pool d1 is read
  // from disk exactly once.
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  // Fetched: t1, t3, t2 (advisors) + d1 (department of t1 and t3; t2's is
  // null). 4 distinct objects.
  EXPECT_EQ(exec.meter.objects_fetched, 4u);
}

TEST_F(LocalExecFixture, ThrowsAtNonRootDatabase) {
  EXPECT_THROW((void)run_local_query(fed(), query_, DbId{3}), QueryError);
}

TEST_F(LocalExecFixture, LocallyCertainHelper) {
  LocalRow row;
  row.preds.push_back(PredStatus{Truth::True, GOid{}, 0, false});
  EXPECT_TRUE(row.locally_certain());
  row.preds.push_back(PredStatus{Truth::Unknown, GOid{1}, 1, false});
  EXPECT_FALSE(row.locally_certain());
}

TEST_F(LocalExecFixture, EvalGlobalPathReturnsGlobalRefs) {
  const Object* s1 = fed().db(DbId{1}).fetch(example_.ids.s1);
  GlobalQuery query;
  query.range_class = "Student";
  query.select("advisor").select("address.city");
  const BoundQuery bound(fed(), query);
  const BoundQuery::Site site = bound.site(DbId{1});
  EXPECT_EQ(bound.eval_target(site, 0, *s1),
            Value(GlobalRef{example_.entity(example_.ids.t1)}));
  EXPECT_TRUE(bound.eval_target(site, 1, *s1).is_null());
}

// The two views of local evaluation must agree: the bound evaluator gives
// the by-name reference walker's truths for the derived LocalQuery's local
// predicates, and the schema-stripped predicates are exactly those it can
// never resolve beyond Unknown for *any* object of that database.
class LocalViewsAgree : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalViewsAgree, OnRandomWorkloads) {
  Rng rng(GetParam());
  ParamConfig config;
  config.n_objects = {20, 40};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const Federation& fed = *synth.federation;
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);
  const BoundQuery bound(fed, synth.query);

  for (const DbId db : fed.db_ids()) {
    const auto local = derive_local_query(fed.schema(), synth.query, db);
    ASSERT_TRUE(local.has_value());
    const ComponentDatabase& database = fed.db(db);
    const BoundQuery::Site site = bound.site(db);

    for (const Object& obj : database.extent(local->root_class).objects()) {
      // (a) local predicates agree with the reference walker.
      for (std::size_t lp = 0; lp < local->local_predicates.size(); ++lp) {
        const std::size_t gp = local->local_predicate_origin[lp];
        const Truth via_oracle =
            oracle::eval_global_predicate_at(fed, db, obj, range,
                                             synth.query.predicates[gp], 0)
                .truth;
        EXPECT_EQ(bound.eval_predicate(site, gp, obj).truth, via_oracle);
      }
      // (b) schema-stripped predicates are Unknown for every object here.
      for (const UnsolvedPredicate& unsolved : local->unsolved_predicates) {
        EXPECT_EQ(
            bound.eval_predicate(site, unsolved.predicate_index, obj).truth,
            Truth::Unknown);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalViewsAgree,
                         ::testing::Range<std::uint64_t>(300, 312));

}  // namespace
}  // namespace isomer
