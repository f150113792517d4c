// The closed-form analytic model, cross-validated against the simulator.
#include <gtest/gtest.h>

#include "isomer/analytic/model.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

class AnalyticCrossval : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyticCrossval, TotalsTrackTheSimulatorWithin35Percent) {
  Rng rng(GetParam());
  ParamConfig config;
  config.n_objects = {600, 800};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  StrategyOptions options;

  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport des =
        execute_strategy(kind, *synth.federation, synth.query, options);
    const AnalyticEstimate model = estimate_strategy(kind, sample);
    const double des_s = to_seconds(des.total_ns);
    EXPECT_NEAR(model.total_s, des_s, 0.35 * des_s)
        << to_string(kind) << " diverged on seed " << GetParam();
    EXPECT_GT(model.response_s, 0.0);
    EXPECT_LE(model.response_s, model.total_s * 1.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyticCrossval,
                         ::testing::Range<std::uint64_t>(100, 115));

TEST(Analytic, PredictsCaVsBlOrdering) {
  Rng rng(55);
  ParamConfig config;
  config.n_objects = {600, 800};
  StrategyOptions options;
  int agree = 0;
  const int n = 12;
  for (int s = 0; s < n; ++s) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const double des_ca = to_seconds(
        execute_strategy(StrategyKind::CA, *synth.federation, synth.query,
                         options)
            .total_ns);
    const double des_bl = to_seconds(
        execute_strategy(StrategyKind::BL, *synth.federation, synth.query,
                         options)
            .total_ns);
    const double model_ca = estimate_strategy(StrategyKind::CA, sample).total_s;
    const double model_bl = estimate_strategy(StrategyKind::BL, sample).total_s;
    if ((des_ca > des_bl) == (model_ca > model_bl)) ++agree;
  }
  EXPECT_GE(agree, n - 2);
}

TEST(Analytic, MonotoneInObjectCount) {
  ParamConfig config;
  Rng rng(56);
  SampleParams sample = draw_sample(config, rng);
  const auto scale_to = [&](int n) {
    SampleParams scaled = sample;
    for (auto& cls : scaled.classes)
      for (auto& db : cls.dbs) db.n_objects = n;
    return scaled;
  };
  for (const StrategyKind kind : kPaperStrategies) {
    double prev = 0;
    for (const int n : {1000, 2000, 4000, 8000}) {
      const double total = estimate_strategy(kind, scale_to(n)).total_s;
      EXPECT_GT(total, prev) << to_string(kind);
      prev = total;
    }
  }
}

TEST(Analytic, PlCostsAtLeastBl) {
  ParamConfig config;
  Rng rng(57);
  for (int s = 0; s < 30; ++s) {
    const SampleParams sample = draw_sample(config, rng);
    EXPECT_GE(estimate_strategy(StrategyKind::PL, sample).total_s,
              estimate_strategy(StrategyKind::BL, sample).total_s * 0.999);
  }
}

TEST(Analytic, SignatureVariantsShipFewerBytes) {
  ParamConfig config;
  Rng rng(58);
  for (int s = 0; s < 30; ++s) {
    const SampleParams sample = draw_sample(config, rng);
    EXPECT_LE(estimate_strategy(StrategyKind::BLS, sample).bytes,
              estimate_strategy(StrategyKind::BL, sample).bytes * 1.0001);
  }
}

TEST(Analytic, RejectsEmptySample) {
  SampleParams empty;
  EXPECT_THROW((void)estimate_strategy(StrategyKind::CA, empty),
               ContractViolation);
}

}  // namespace
}  // namespace isomer
