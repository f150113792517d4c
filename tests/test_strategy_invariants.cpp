// Cross-cutting invariants of the simulated strategy executions.
#include <gtest/gtest.h>

#include "isomer/core/strategy.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

SynthFederation make_synth(std::uint64_t seed, std::size_t n_db = 3) {
  Rng rng(seed);
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {40, 80};
  const SampleParams sample = draw_sample(config, rng);
  return materialize_sample(sample);
}

class TopologyInvariants
    : public ::testing::TestWithParam<NetworkTopology> {};

TEST_P(TopologyInvariants, AnswersAreTopologyIndependent) {
  const SynthFederation synth = make_synth(500);
  const QueryResult expected =
      reference_answer(*synth.federation, synth.query);
  StrategyOptions options;
  options.topology = GetParam();
  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    EXPECT_EQ(report.result, expected) << to_string(kind);
    EXPECT_GE(report.total_ns, report.response_ns);
  }
}

TEST_P(TopologyInvariants, NetworkBusyReflectsContentionModel) {
  const SynthFederation synth = make_synth(501);
  StrategyOptions options;
  options.topology = GetParam();
  const StrategyReport report = execute_strategy(
      StrategyKind::BL, *synth.federation, synth.query, options);
  const SimTime nominal =
      CostParams{}.net_time(report.bytes_transferred);
  if (GetParam() == NetworkTopology::CollisionBus)
    EXPECT_GE(report.net_ns, nominal) << "collisions can only add time";
  else
    EXPECT_EQ(report.net_ns, nominal)
        << "FIFO queueing delays but never burns bandwidth";
}

INSTANTIATE_TEST_SUITE_P(
    All, TopologyInvariants,
    ::testing::Values(NetworkTopology::SharedBus,
                      NetworkTopology::PointToPoint,
                      NetworkTopology::Contentionless,
                      NetworkTopology::CollisionBus),
    [](const auto& info) {
      std::string name(to_string(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(StrategyInvariants, ContentionlessResponseNeverSlower) {
  const SynthFederation synth = make_synth(502, 5);
  StrategyOptions shared, free;
  shared.topology = NetworkTopology::SharedBus;
  free.topology = NetworkTopology::Contentionless;
  for (const StrategyKind kind : kPaperStrategies) {
    const auto with_bus =
        execute_strategy(kind, *synth.federation, synth.query, shared);
    const auto without =
        execute_strategy(kind, *synth.federation, synth.query, free);
    EXPECT_LE(without.response_ns, with_bus.response_ns) << to_string(kind);
    EXPECT_EQ(without.result, with_bus.result);
  }
}

TEST(StrategyInvariants, TraceCoversEveryPhase) {
  const SynthFederation synth = make_synth(503);
  for (const StrategyKind kind : kPaperStrategies) {
    obs::TraceSession session;
    StrategyOptions options;
    options.trace_session = &session;
    const StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    EXPECT_TRUE(session.first_start(Phase::P).has_value());
    EXPECT_TRUE(session.first_start(Phase::I).has_value());
    // The answer is ready exactly when the last O/I/P burst completes —
    // nothing but bookkeeping happens after it.
    SimTime last = 0;
    for (const Phase phase : {Phase::O, Phase::I, Phase::P})
      if (const auto end = session.last_end(phase))
        last = std::max(last, *end);
    EXPECT_EQ(report.response_ns, last) << to_string(kind);
    EXPECT_GT(report.response_ns, 0);
  }
}

TEST(StrategyInvariants, WorkAggregateIsStrategyDependentButNonzero) {
  const SynthFederation synth = make_synth(504);
  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query);
    EXPECT_GT(report.work.comparisons, 0u) << to_string(kind);
    EXPECT_GT(report.work.objects_scanned, 0u) << to_string(kind);
    EXPECT_GT(report.bytes_transferred, 0u) << to_string(kind);
    EXPECT_GT(report.messages, 0u) << to_string(kind);
  }
}

TEST(StrategyInvariants, CostScalesWithRates) {
  const SynthFederation synth = make_synth(505);
  StrategyOptions slow;
  slow.costs.disk_ns_per_byte *= 2;
  StrategyOptions base;
  for (const StrategyKind kind : kPaperStrategies) {
    const auto fast =
        execute_strategy(kind, *synth.federation, synth.query, base);
    const auto slower =
        execute_strategy(kind, *synth.federation, synth.query, slow);
    EXPECT_EQ(slower.disk_ns, 2 * fast.disk_ns) << to_string(kind);
    EXPECT_EQ(slower.net_ns, fast.net_ns) << to_string(kind);
    EXPECT_EQ(slower.result, fast.result);
  }
}

TEST(StrategyInvariants, EmptyFederationAnswers) {
  // A federation whose extents are empty still answers (empty result).
  Rng rng(506);
  ParamConfig config;
  config.n_objects = {1, 1};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  GlobalQuery impossible = synth.query;
  impossible.predicates.push_back(
      Predicate{PathExpr::parse("id"), CompOp::Lt, Value(0)});
  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport report =
        execute_strategy(kind, *synth.federation, impossible);
    EXPECT_TRUE(report.result.rows.empty()) << to_string(kind);
  }
}

TEST(StrategyInvariants, StrategyNames) {
  EXPECT_EQ(to_string(StrategyKind::CA), "CA");
  EXPECT_EQ(to_string(StrategyKind::BL), "BL");
  EXPECT_EQ(to_string(StrategyKind::PL), "PL");
  EXPECT_EQ(to_string(StrategyKind::BLS), "BL-S");
  EXPECT_EQ(to_string(StrategyKind::PLS), "PL-S");
}

}  // namespace
}  // namespace isomer
