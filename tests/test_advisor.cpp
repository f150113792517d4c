// The sampling strategy advisor, validated against the simulator.
#include <gtest/gtest.h>

#include "isomer/analytic/advisor.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

TEST(Advisor, RunsOnThePaperExample) {
  const paper::UniversityExample example = paper::make_university();
  const Advice advice = advise_strategy(*example.federation, paper::q1());
  ASSERT_EQ(advice.estimates.size(), 3u);
  EXPECT_EQ(advice.estimates[0].kind, StrategyKind::CA);
  EXPECT_EQ(advice.estimates[1].kind, StrategyKind::BL);
  EXPECT_EQ(advice.estimates[2].kind, StrategyKind::PL);
  for (const StrategyEstimate& estimate : advice.estimates) {
    EXPECT_GT(estimate.total_s, 0.0);
    EXPECT_GT(estimate.response_s, 0.0);
  }
  EXPECT_FALSE(advice.rationale.empty());
  EXPECT_EQ(advice.stats.dbs.size(), 2u);  // DB1 and DB2 hold Students
}

TEST(Advisor, StatsReflectTheRunningExample) {
  const paper::UniversityExample example = paper::make_university();
  const Advice advice = advise_strategy(*example.federation, paper::q1());
  // DB1: all 3 students survive locally (sample = whole extent of 3).
  const auto& db1 = advice.stats.dbs[0];
  EXPECT_EQ(db1.db, DbId{1});
  EXPECT_EQ(db1.root_objects, 3u);
  EXPECT_EQ(db1.sampled, 3u);
  EXPECT_DOUBLE_EQ(db1.survive_rate, 1.0);
  // DB2: only Hedy survives of 3.
  const auto& db2 = advice.stats.dbs[1];
  EXPECT_NEAR(db2.survive_rate, 1.0 / 3.0, 1e-12);
}

TEST(Advisor, EstimatesTrackTheSimulator) {
  Rng rng(91);
  ParamConfig config;
  config.n_objects = {500, 700};
  StrategyOptions exec;
  int total_hits = 0;
  const int n = 8;
  for (int s = 0; s < n; ++s) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const Advice advice = advise_strategy(*synth.federation, synth.query);
    // (a) each estimate within 40% of the DES figure;
    for (const StrategyEstimate& estimate : advice.estimates) {
      const StrategyReport report = execute_strategy(
          estimate.kind, *synth.federation, synth.query, exec);
      EXPECT_NEAR(estimate.total_s, to_seconds(report.total_ns),
                  0.40 * to_seconds(report.total_ns))
          << to_string(estimate.kind) << " sample " << s;
    }
    // (b) the total-time recommendation matches the DES winner.
    double best = 1e300;
    StrategyKind winner = StrategyKind::CA;
    for (const StrategyKind kind : kPaperStrategies) {
      const double t = to_seconds(
          execute_strategy(kind, *synth.federation, synth.query, exec)
              .total_ns);
      if (t < best) {
        best = t;
        winner = kind;
      }
    }
    if (winner == advice.best_total) ++total_hits;
  }
  EXPECT_GE(total_hits, n - 1);
}

TEST(Advisor, SamplingIsDeterministicInSeed) {
  Rng rng(92);
  ParamConfig config;
  config.n_objects = {200, 300};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const Advice a = advise_strategy(*synth.federation, synth.query);
  const Advice b = advise_strategy(*synth.federation, synth.query);
  for (std::size_t i = 0; i < a.estimates.size(); ++i)
    EXPECT_DOUBLE_EQ(a.estimates[i].total_s, b.estimates[i].total_s);
}

TEST(Advisor, AdviceIdenticalAcrossJobCounts) {
  // Per-database profiling runs on AdvisorOptions::jobs threads; each site
  // samples from its own derived RNG stream, so the thread count must not
  // move a single estimate or statistic.
  Rng rng(93);
  ParamConfig config;
  config.n_objects = {200, 300};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  AdvisorOptions serial_opts;
  serial_opts.jobs = 1;
  const Advice serial =
      advise_strategy(*synth.federation, synth.query, serial_opts);
  for (const int jobs : {2, 4}) {
    AdvisorOptions parallel_opts;
    parallel_opts.jobs = jobs;
    const Advice parallel =
        advise_strategy(*synth.federation, synth.query, parallel_opts);
    ASSERT_EQ(serial.estimates.size(), parallel.estimates.size());
    for (std::size_t i = 0; i < serial.estimates.size(); ++i) {
      EXPECT_EQ(serial.estimates[i].total_s, parallel.estimates[i].total_s);
      EXPECT_EQ(serial.estimates[i].response_s,
                parallel.estimates[i].response_s);
      EXPECT_EQ(serial.estimates[i].bytes, parallel.estimates[i].bytes);
    }
    ASSERT_EQ(serial.stats.dbs.size(), parallel.stats.dbs.size());
    for (std::size_t i = 0; i < serial.stats.dbs.size(); ++i) {
      EXPECT_EQ(serial.stats.dbs[i].survive_rate,
                parallel.stats.dbs[i].survive_rate);
      EXPECT_EQ(serial.stats.dbs[i].fetches_per_object,
                parallel.stats.dbs[i].fetches_per_object);
    }
    EXPECT_EQ(serial.best_total, parallel.best_total);
    EXPECT_EQ(serial.best_response, parallel.best_response);
  }
}

TEST(Advisor, SampleSizeCapsAtExtent) {
  const paper::UniversityExample example = paper::make_university();
  AdvisorOptions options;
  options.sample_size = 1000;  // far more than 3 students
  const Advice advice =
      advise_strategy(*example.federation, paper::q1(), options);
  EXPECT_EQ(advice.stats.dbs[0].sampled, 3u);
}

TEST(Advisor, RejectsMalformedQueries) {
  const paper::UniversityExample example = paper::make_university();
  GlobalQuery bad;
  bad.range_class = "Student";
  bad.where("nope", CompOp::Eq, 1);
  EXPECT_THROW((void)advise_strategy(*example.federation, bad), QueryError);
}

TEST(Advisor, RejectsPathsPastPrimitivesAndUnknownAttributes) {
  const paper::UniversityExample example = paper::make_university();
  for (const char* path : {"no_such_attr", "name.more"}) {
    GlobalQuery bad = paper::q1();
    bad.where(path, CompOp::Eq, "x");
    EXPECT_THROW((void)advise_strategy(*example.federation, bad), QueryError)
        << path;
  }
}

}  // namespace
}  // namespace isomer
