// Concurrent query streams: shared-cluster contention, answer preservation,
// and queueing behavior between queries.
#include <gtest/gtest.h>

#include "isomer/core/stream.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

TEST(Stream, SingleQueryMatchesStandaloneExecution) {
  const paper::UniversityExample example = paper::make_university();
  StrategyOptions options;
  const StrategyReport solo =
      execute_strategy(StrategyKind::BL, *example.federation, paper::q1(),
                       options);
  const StreamReport stream = run_query_stream(
      *example.federation, {{paper::q1(), 0, StrategyKind::BL}}, options);
  ASSERT_EQ(stream.outcomes.size(), 1u);
  EXPECT_EQ(stream.outcomes[0].result, solo.result);
  EXPECT_EQ(stream.outcomes[0].latency(), solo.response_ns);
  EXPECT_EQ(stream.makespan, solo.response_ns);
  EXPECT_EQ(stream.total_busy_ns, solo.total_ns);
}

TEST(Stream, ConcurrentQueriesAllAnswerCorrectly) {
  const paper::UniversityExample example = paper::make_university();
  const QueryResult expected =
      reference_answer(*example.federation, paper::q1());
  std::vector<StreamQuery> stream;
  for (int i = 0; i < 4; ++i)
    stream.push_back({paper::q1(), microseconds(i * 100), StrategyKind::BL});
  const StreamReport report =
      run_query_stream(*example.federation, stream);
  for (const StreamOutcome& outcome : report.outcomes)
    EXPECT_EQ(outcome.result, expected);
}

TEST(Stream, ContentionStretchesLatency) {
  // Four simultaneous queries on one cluster: each sees strictly more
  // queueing than a lone run, and the makespan exceeds the solo response.
  const paper::UniversityExample example = paper::make_university();
  StrategyOptions options;
  const SimTime solo =
      execute_strategy(StrategyKind::BL, *example.federation, paper::q1(),
                       options)
          .response_ns;
  std::vector<StreamQuery> burst(4,
                                 {paper::q1(), 0, StrategyKind::BL});
  const StreamReport report =
      run_query_stream(*example.federation, burst, options);
  EXPECT_GT(report.makespan, solo);
  for (const StreamOutcome& outcome : report.outcomes)
    EXPECT_GE(outcome.latency(), solo);
  // Work is additive: four queries do four times the lone query's work.
  EXPECT_EQ(report.total_busy_ns,
            4 * execute_strategy(StrategyKind::BL, *example.federation,
                                 paper::q1(), options)
                    .total_ns);
}

TEST(Stream, WellSpacedQueriesDoNotInterfere) {
  const paper::UniversityExample example = paper::make_university();
  StrategyOptions options;
  const SimTime solo =
      execute_strategy(StrategyKind::BL, *example.federation, paper::q1(),
                       options)
          .response_ns;
  // Arrivals far apart: each query finds an idle cluster.
  std::vector<StreamQuery> spaced;
  for (int i = 0; i < 3; ++i)
    spaced.push_back(
        {paper::q1(), i * (solo + microseconds(1000)), StrategyKind::BL});
  const StreamReport report =
      run_query_stream(*example.federation, spaced, options);
  for (const StreamOutcome& outcome : report.outcomes)
    EXPECT_EQ(outcome.latency(), solo);
}

TEST(Stream, MixedStrategiesShareTheCluster) {
  const paper::UniversityExample example = paper::make_university();
  const QueryResult expected =
      reference_answer(*example.federation, paper::q1());
  const std::vector<StreamQuery> mixed = {
      {paper::q1(), 0, StrategyKind::CA},
      {paper::q1(), 0, StrategyKind::BL},
      {paper::q1(), 0, StrategyKind::PL},
  };
  const StreamReport report = run_query_stream(*example.federation, mixed);
  for (const StreamOutcome& outcome : report.outcomes)
    EXPECT_EQ(outcome.result, expected);
  EXPECT_GT(report.mean_latency_ms(), 0.0);
  EXPECT_GE(report.max_latency(), report.outcomes[0].latency());
}

TEST(Stream, LocalizedBurstsBeatCentralizedBursts) {
  // The capacity angle: under a burst of identical queries the localized
  // strategy's smaller shared-medium footprint wins on mean latency.
  Rng rng(77);
  ParamConfig config;
  config.n_objects = {150, 200};
  // Multi-class queries with real predicates: the regime where localized
  // evaluation structurally ships and scans less than CA (single-class
  // no-predicate samples can go either way).
  config.n_classes = {3, 4};
  config.n_preds = {1, 3};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  StrategyOptions options;

  const auto burst_of = [&](StrategyKind kind) {
    std::vector<StreamQuery> stream(4, {synth.query, 0, kind});
    return run_query_stream(*synth.federation, stream, options);
  };
  const StreamReport ca = burst_of(StrategyKind::CA);
  const StreamReport bl = burst_of(StrategyKind::BL);
  EXPECT_LT(bl.mean_latency_ms(), ca.mean_latency_ms());
  EXPECT_LT(bl.makespan, ca.makespan);
}

TEST(Stream, EmptyStream) {
  const paper::UniversityExample example = paper::make_university();
  const StreamReport report = run_query_stream(*example.federation, {});
  EXPECT_TRUE(report.outcomes.empty());
  EXPECT_EQ(report.makespan, 0);
  EXPECT_EQ(report.total_busy_ns, 0);
}

}  // namespace
}  // namespace isomer
