// Qualitative shape checks of §4.2 over Table-2 workloads (scaled down):
// the localized approaches' response time beats the centralized approach's,
// and their total execution time is lower at the default database count.
// The full sweeps live in the bench/ harnesses; these tests pin the paper's
// headline orderings so a regression cannot slip through.
#include <gtest/gtest.h>

#include "isomer/core/strategy.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

struct Averages {
  double ca_resp = 0, bl_resp = 0, pl_resp = 0;
  double ca_total = 0, bl_total = 0, pl_total = 0;
};

Averages run_samples(const ParamConfig& config, std::uint64_t seed,
                     int samples) {
  Rng rng(seed);
  StrategyOptions options;
  Averages avg;
  for (int i = 0; i < samples; ++i) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const auto ca = execute_strategy(StrategyKind::CA, *synth.federation,
                                     synth.query, options);
    const auto bl = execute_strategy(StrategyKind::BL, *synth.federation,
                                     synth.query, options);
    const auto pl = execute_strategy(StrategyKind::PL, *synth.federation,
                                     synth.query, options);
    avg.ca_resp += to_milliseconds(ca.response_ns);
    avg.bl_resp += to_milliseconds(bl.response_ns);
    avg.pl_resp += to_milliseconds(pl.response_ns);
    avg.ca_total += to_milliseconds(ca.total_ns);
    avg.bl_total += to_milliseconds(bl.total_ns);
    avg.pl_total += to_milliseconds(pl.total_ns);
  }
  return avg;
}

TEST(PaperShapes, LocalizedBeatsCentralizedAtDefaultSetting) {
  ParamConfig config;              // Table-2 defaults
  config.n_objects = {300, 360};   // scaled 5000-6000 / ~16 for test speed
  const Averages avg = run_samples(config, 42, 12);

  // Fig. 9(b): localized response time is shorter than centralized.
  EXPECT_LT(avg.bl_resp, avg.ca_resp);
  EXPECT_LT(avg.pl_resp, avg.ca_resp);
  // Fig. 9(a): localized total execution time is shorter at N_db = 3.
  EXPECT_LT(avg.bl_total, avg.ca_total);
  EXPECT_LT(avg.pl_total, avg.ca_total);
  // BL never does more checking work than PL.
  EXPECT_LE(avg.bl_total, avg.pl_total);
}

TEST(PaperShapes, PlOverheadGrowsWithDatabases) {
  // Fig. 10(a): PL's total time grows faster than BL's as N_db increases —
  // eager checking touches assistants for objects local evaluation would
  // have eliminated, and more databases mean more isomers to check.
  ParamConfig small;
  small.n_db = 2;
  small.n_objects = {200, 240};
  ParamConfig large = small;
  large.n_db = 7;

  const Averages at2 = run_samples(small, 7, 10);
  const Averages at7 = run_samples(large, 7, 10);

  const double bl_growth = at7.bl_total / at2.bl_total;
  const double pl_growth = at7.pl_total / at2.pl_total;
  EXPECT_GT(pl_growth, bl_growth);
}

}  // namespace
}  // namespace isomer
