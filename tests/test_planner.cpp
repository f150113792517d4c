// Adaptive planner + hybrid plan execution: per-site pricing, collapse to
// the pure strategies, mid-flight switching, stats-book feedback, and the
// serving layer's plan modes (docs/PLANNING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isomer/analytic/planner.hpp"
#include "isomer/analytic/site_stats.hpp"
#include "isomer/common/error.hpp"
#include "isomer/core/operators.hpp"
#include "isomer/serve/planner.hpp"
#include "isomer/serve/server.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

/// The skew the planner exists for: DB1 evaluates every predicate locally
/// (selective — rows beat its wide extent), DB2/DB3 evaluate none
/// (survive ~ 1 — their narrow projected extents beat full row sets).
SynthFederation make_skewed(int big_objects = 400, int blind_objects = 120) {
  SampleParams sample;
  sample.n_db = 3;
  sample.n_targets = 2;
  sample.iso_ratio = 0.15;
  SampleParams::PerClass root;
  root.n_preds = 2;
  root.pred_selectivity = 0.25;
  root.ref_ratio = 0.8;
  SampleParams::PerDb evaluating;
  evaluating.n_objects = big_objects;
  evaluating.present_preds = {0, 1};
  SampleParams::PerDb blind;
  blind.n_objects = blind_objects;
  root.dbs = {evaluating, blind, blind};
  sample.classes.push_back(std::move(root));
  sample.materialize_seed = 42;
  return materialize_sample(sample);
}

/// A federation with no skew: every site evaluates every predicate, so
/// surviving rows are cheap everywhere and the plan collapses to pure BL.
SynthFederation make_uniform(int n_objects = 200) {
  SampleParams sample;
  sample.n_db = 3;
  sample.n_targets = 1;
  sample.iso_ratio = 0.15;
  SampleParams::PerClass root;
  root.n_preds = 2;
  root.pred_selectivity = 0.25;
  root.ref_ratio = 0.8;
  SampleParams::PerDb db;
  db.n_objects = n_objects;
  db.present_preds = {0, 1};
  root.dbs = {db, db, db};
  sample.classes.push_back(std::move(root));
  sample.materialize_seed = 43;
  return materialize_sample(sample);
}

TEST(PlanAdaptive, SkewYieldsMixedPaths) {
  const SynthFederation synth = make_skewed();
  const PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  ASSERT_EQ(choice.sites.size(), 3u);
  EXPECT_TRUE(choice.plan.hybrid) << choice.rationale;
  // The evaluating site ships its few surviving rows; the blind sites ship
  // their narrow extents.
  EXPECT_EQ(choice.sites[0].path, SitePath::Localized) << choice.rationale;
  EXPECT_EQ(choice.sites[1].path, SitePath::Central) << choice.rationale;
  EXPECT_EQ(choice.sites[2].path, SitePath::Central) << choice.rationale;
  // The mixture is priced strictly cheaper than both pure strategies.
  EXPECT_LT(choice.hybrid_bytes, choice.ca_bytes);
  EXPECT_LT(choice.hybrid_bytes, choice.localized_bytes);
  EXPECT_FALSE(choice.rationale.empty());
  // The plan mirrors the estimates it was derived from.
  ASSERT_EQ(choice.plan.sites.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(choice.plan.sites[i].db, choice.sites[i].db);
    EXPECT_EQ(choice.plan.sites[i].path, choice.sites[i].path);
  }
}

TEST(PlanAdaptive, UniformCollapsesToPureLocalized) {
  const SynthFederation synth = make_uniform();
  const PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  EXPECT_FALSE(choice.plan.hybrid) << choice.rationale;
  EXPECT_EQ(choice.plan.label, StrategyKind::BL);
  EXPECT_TRUE(choice.plan.sites.empty());
  for (const SitePlanEstimate& site : choice.sites)
    EXPECT_EQ(site.path, SitePath::Localized);
}

TEST(PlanAdaptive, Deterministic) {
  const SynthFederation synth = make_skewed();
  const PlanChoice a = plan_adaptive(*synth.federation, synth.query);
  const PlanChoice b = plan_adaptive(*synth.federation, synth.query);
  EXPECT_EQ(a.rationale, b.rationale);
  EXPECT_EQ(a.plan.hybrid, b.plan.hybrid);
  EXPECT_EQ(a.ca_bytes, b.ca_bytes);
  EXPECT_EQ(a.localized_bytes, b.localized_bytes);
  EXPECT_EQ(a.hybrid_bytes, b.hybrid_bytes);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].path, b.sites[i].path);
    EXPECT_EQ(a.sites[i].est_rows_bytes, b.sites[i].est_rows_bytes);
    EXPECT_EQ(a.sites[i].extent_bytes, b.sites[i].extent_bytes);
  }
}

TEST(PlanAdaptive, BookObservationsOverrideSampling) {
  const SynthFederation synth = make_skewed();
  const PlanChoice sampled = plan_adaptive(*synth.federation, synth.query);
  ASSERT_EQ(sampled.sites[1].path, SitePath::Central);

  // An observed payload far below the extent flips the site to Localized.
  SiteStatsBook book;
  book.observe(sampled.sites[1].db, 1.0);
  const PlanChoice corrected =
      plan_adaptive(*synth.federation, synth.query, {}, &book);
  EXPECT_TRUE(corrected.sites[1].from_book);
  EXPECT_EQ(corrected.sites[1].est_rows_bytes, 1.0);
  EXPECT_EQ(corrected.sites[1].path, SitePath::Localized);
  // Unobserved sites keep their sampling estimates.
  EXPECT_FALSE(corrected.sites[0].from_book);
  EXPECT_EQ(corrected.sites[0].est_rows_bytes,
            sampled.sites[0].est_rows_bytes);
}

TEST(SiteStatsBook, EwmaSeedsThenSmooths) {
  SiteStatsBook book(0.5);
  const DbId db{1};
  EXPECT_FALSE(book.rows_bytes(db).has_value());
  book.observe(db, 100.0);  // first observation seeds directly
  EXPECT_EQ(book.rows_bytes(db).value(), 100.0);
  EXPECT_EQ(book.observations(db), 1u);
  book.observe(db, 200.0);  // then EWMA: 0.5*200 + 0.5*100
  EXPECT_EQ(book.rows_bytes(db).value(), 150.0);
  EXPECT_EQ(book.observations(db), 2u);
  EXPECT_EQ(book.sites(), 1u);
}

TEST(SiteStatsBook, FoldsHybridTelemetry) {
  PlanTelemetry telemetry;
  SiteDecision decision;
  decision.db = DbId{2};
  decision.observed_rows_bytes = 640.0;
  telemetry.decisions.push_back(decision);
  SiteStatsBook book;
  book.fold(telemetry);
  EXPECT_EQ(book.rows_bytes(DbId{2}).value(), 640.0);
}

TEST(ExecutePlan, HybridMatchesReferenceAnswer) {
  const SynthFederation synth = make_skewed();
  const PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  ASSERT_TRUE(choice.plan.hybrid);
  StrategyOptions options;
  const PlanReport hybrid =
      execute_plan(*synth.federation, synth.query, choice.plan, options);
  EXPECT_EQ(hybrid.report.result,
            reference_answer(*synth.federation, synth.query));
  // Every home site reports a decision; none switched (the plan already
  // placed each site on its cheaper path).
  ASSERT_EQ(hybrid.telemetry.decisions.size(), 3u);
  EXPECT_EQ(hybrid.telemetry.switches(), 0u);
  for (const SiteDecision& decision : hybrid.telemetry.decisions) {
    EXPECT_EQ(decision.planned, decision.executed);
    EXPECT_GT(decision.observed_rows_bytes, 0.0);
  }
}

TEST(ExecutePlan, HybridWireBeatsBothPureStrategies) {
  const SynthFederation synth = make_skewed();
  const PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  ASSERT_TRUE(choice.plan.hybrid);
  StrategyOptions options;
  const Bytes hybrid =
      execute_plan(*synth.federation, synth.query, choice.plan, options)
          .report.bytes_transferred;
  const Bytes ca = execute_strategy(StrategyKind::CA, *synth.federation,
                                    synth.query, options)
                       .bytes_transferred;
  const Bytes bl = execute_strategy(StrategyKind::BL, *synth.federation,
                                    synth.query, options)
                       .bytes_transferred;
  EXPECT_LE(hybrid, std::min(ca, bl))
      << "hybrid " << hybrid << " vs CA " << ca << " vs BL " << bl;
}

TEST(ExecutePlan, MidFlightSwitchFiresOnUnderestimate) {
  const SynthFederation synth = make_skewed();
  PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  ASSERT_TRUE(choice.plan.hybrid);
  ASSERT_EQ(choice.plan.sites[1].path, SitePath::Central);
  // Mis-plan a blind site onto the Localized path with a wildly low row
  // estimate: after its local filter the observed payload exceeds
  // switch_factor x estimate while the extent is cheaper, so the home must
  // re-decide mid-flight.
  choice.plan.sites[1].path = SitePath::Localized;
  choice.plan.sites[1].est_rows_bytes = 1.0;
  choice.plan.switch_factor = 1.0;

  StrategyOptions options;
  const PlanReport report =
      execute_plan(*synth.federation, synth.query, choice.plan, options);
  EXPECT_EQ(report.telemetry.switches(), 1u);
  const SiteDecision& switched = report.telemetry.decisions[1];
  EXPECT_TRUE(switched.switched);
  EXPECT_EQ(switched.planned, SitePath::Localized);
  EXPECT_EQ(switched.executed, SitePath::Central);
  // Switching changes the route, never the answer.
  EXPECT_EQ(report.report.result,
            reference_answer(*synth.federation, synth.query));
}

TEST(ExecutePlan, SwitchDisabledWhenFactorIsZero) {
  const SynthFederation synth = make_skewed();
  PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  ASSERT_TRUE(choice.plan.hybrid);
  choice.plan.sites[1].path = SitePath::Localized;
  choice.plan.sites[1].est_rows_bytes = 1.0;
  choice.plan.switch_factor = 0;  // adaptive-without-insurance mode

  StrategyOptions options;
  const PlanReport report =
      execute_plan(*synth.federation, synth.query, choice.plan, options);
  EXPECT_EQ(report.telemetry.switches(), 0u);
  EXPECT_EQ(report.telemetry.decisions[1].executed, SitePath::Localized);
  EXPECT_EQ(report.report.result,
            reference_answer(*synth.federation, synth.query));
}

TEST(ExecutePlan, HybridEmitsPlanSpans) {
  const SynthFederation synth = make_skewed();
  PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  ASSERT_TRUE(choice.plan.hybrid);
  // Force one switch so both span flavors appear.
  choice.plan.sites[1].path = SitePath::Localized;
  choice.plan.sites[1].est_rows_bytes = 1.0;
  choice.plan.switch_factor = 1.0;

  obs::TraceSession session;
  StrategyOptions options;
  options.trace_session = &session;
  (void)execute_plan(*synth.federation, synth.query, choice.plan, options);

  std::size_t site_spans = 0, switch_spans = 0;
  for (const obs::PhaseSpan& span : session.spans()) {
    if (span.phase != Phase::Plan) continue;
    EXPECT_EQ(span.strategy, "HY");
    if (span.step == "plan.switch")
      ++switch_spans;
    else if (span.step.rfind("plan.site", 0) == 0)
      ++site_spans;
  }
  EXPECT_EQ(site_spans, 3u);   // one decision span per home site
  EXPECT_EQ(switch_spans, 1u); // the forced mid-flight switch
}

TEST(ExecPlan, ToTextNamesEverySite) {
  const SynthFederation synth = make_skewed();
  const PlanChoice choice = plan_adaptive(*synth.federation, synth.query);
  const std::string text = choice.plan.to_text();
  EXPECT_NE(text.find("hybrid"), std::string::npos) << text;
  EXPECT_NE(text.find("localized"), std::string::npos) << text;
  EXPECT_NE(text.find("central"), std::string::npos) << text;
  const std::string pure = ExecPlan::pure(StrategyKind::CA).to_text();
  EXPECT_NE(pure.find("CA"), std::string::npos) << pure;
}

TEST(ServePlanner, ParsePlanModeRoundTrips) {
  for (const serve::PlanMode mode :
       {serve::PlanMode::Static, serve::PlanMode::Adaptive,
        serve::PlanMode::Hybrid})
    EXPECT_EQ(serve::parse_plan_mode(to_string(mode)), mode);
  EXPECT_THROW((void)serve::parse_plan_mode("eager"), ServeError);
}

serve::ServeSpec closed_spec(std::size_t n) {
  serve::ServeSpec spec;
  spec.mode = serve::ArrivalMode::Closed;
  spec.clients = 2;
  spec.think_ns = 0;
  spec.n_queries = n;
  spec.queue_limit = 0;
  spec.site_inflight = 2;
  return spec;
}

TEST(ServePlanner, AdaptiveWireAtMostBestStatic) {
  const SynthFederation synth = make_skewed();
  const std::vector<GlobalQuery> queries{synth.query};

  const auto serve_wire = [&](const std::vector<serve::ServeRequest>& pool,
                              bool with_book) {
    serve::ServeOptions options;
    SiteStatsBook book;
    if (with_book) options.stats_book = &book;
    return serve::serve(*synth.federation, pool, closed_spec(6), options)
        .bytes_transferred;
  };

  Bytes best_static = 0;
  for (const StrategyKind kind :
       {StrategyKind::CA, StrategyKind::BL, StrategyKind::PL}) {
    serve::ServeRequest request;
    request.query = synth.query;
    request.kind = kind;
    const Bytes wire = serve_wire({request}, false);
    best_static = best_static == 0 ? wire : std::min(best_static, wire);
  }

  serve::PlannerOptions planner;
  planner.mode = serve::PlanMode::Adaptive;
  const std::vector<serve::ServeRequest> adaptive_pool =
      serve::plan_pool(*synth.federation, queries, planner);
  ASSERT_EQ(adaptive_pool.size(), 1u);
  EXPECT_NE(adaptive_pool[0].plan, nullptr);
  EXPECT_NE(adaptive_pool[0].replan, nullptr);
  const Bytes adaptive = serve_wire(adaptive_pool, true);
  EXPECT_LE(adaptive, best_static)
      << "adaptive " << adaptive << " vs best static " << best_static;
}

TEST(ServePlanner, HybridOutcomesCarryPlanTelemetry) {
  const SynthFederation synth = make_skewed();
  serve::PlannerOptions planner;
  planner.mode = serve::PlanMode::Hybrid;
  const std::vector<serve::ServeRequest> pool =
      serve::plan_pool(*synth.federation, {synth.query}, planner);

  serve::ServeOptions options;
  SiteStatsBook book;
  options.stats_book = &book;
  const serve::ServeReport report =
      serve::serve(*synth.federation, pool, closed_spec(4), options);
  ASSERT_EQ(report.completed, 4u);
  for (const serve::ServeOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.hybrid);
    EXPECT_EQ(outcome.result, reference_answer(*synth.federation, synth.query));
  }
  // Every completed hybrid execution fed the book, at every home site.
  EXPECT_EQ(book.sites(), 3u);
  for (const serve::ServeRequest& request : pool)
    for (const SiteAssignment& site : request.plan->sites)
      EXPECT_GE(book.observations(site.db), 4u);
}

TEST(ServePlanner, StatsBookRunsAreDeterministic) {
  const SynthFederation synth = make_skewed();
  serve::PlannerOptions planner;
  planner.mode = serve::PlanMode::Adaptive;
  const std::vector<serve::ServeRequest> pool =
      serve::plan_pool(*synth.federation, {synth.query}, planner);

  const auto run = [&]() {
    serve::ServeOptions options;
    SiteStatsBook book;
    options.stats_book = &book;
    return serve::serve(*synth.federation, pool, closed_spec(6), options);
  };
  const serve::ServeReport a = run();
  const serve::ServeReport b = run();
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion) << i;
    EXPECT_EQ(a.outcomes[i].wire_bytes, b.outcomes[i].wire_bytes) << i;
    EXPECT_EQ(a.outcomes[i].plan_switches, b.outcomes[i].plan_switches) << i;
  }
}

TEST(ServePlanner, PaperExampleStaticAndAdaptiveAgreeOnAnswers) {
  // The running example is tiny and unskewed; whatever mode plans it, every
  // completed answer must match the reference.
  const paper::UniversityExample example = paper::make_university();
  const QueryResult expected =
      reference_answer(*example.federation, paper::q1());
  for (const serve::PlanMode mode :
       {serve::PlanMode::Static, serve::PlanMode::Adaptive,
        serve::PlanMode::Hybrid}) {
    serve::PlannerOptions planner;
    planner.mode = mode;
    const std::vector<serve::ServeRequest> pool =
        serve::plan_pool(*example.federation, {paper::q1()}, planner);
    serve::ServeOptions options;
    SiteStatsBook book;
    if (mode != serve::PlanMode::Static) options.stats_book = &book;
    const serve::ServeReport report =
        serve::serve(*example.federation, pool, closed_spec(3), options);
    ASSERT_EQ(report.completed, 3u) << to_string(mode);
    for (const serve::ServeOutcome& outcome : report.outcomes)
      EXPECT_EQ(outcome.result, expected) << to_string(mode);
  }
}

}  // namespace
}  // namespace isomer
