// Cross-validation — the closed-form analytic model vs the discrete-event
// simulator, over random Table-2 samples. Reports per-strategy mean absolute
// percentage error on total execution time and the rate at which the model
// predicts the same CA/BL/PL ordering as the simulator. Also demonstrates
// the model's purpose: a full-scale 500-sample Fig. 9 sweep estimated in
// microseconds.
#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "isomer/analytic/model.hpp"

int main(int argc, char** argv) {
  using namespace isomer;
  using namespace isomer::bench;
  HarnessOptions options = parse_options(argc, argv);
  if (options.scale == 1.0) options.scale = 0.2;  // DES side stays affordable

  StrategyOptions exec_options;

  ParamConfig config;
  apply_scale(config, options.scale);

  const StrategyKind kinds[3] = {StrategyKind::CA, StrategyKind::BL,
                                 StrategyKind::PL};
  struct Trial {
    double err[3] = {0, 0, 0};
    bool ordering_hit = false;
  };
  std::vector<Trial> trials(static_cast<std::size_t>(options.samples));
  for_each_trial(options.samples, options.seed, options.jobs,
                 [&](std::size_t s, Rng& rng) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    double des[3], model[3];
    for (int k = 0; k < 3; ++k) {
      const StrategyReport report = execute_strategy(
          kinds[k], *synth.federation, synth.query, exec_options);
      des[k] = to_seconds(report.total_ns);
      model[k] = estimate_strategy(kinds[k], sample).total_s;
      trials[s].err[k] = std::abs(model[k] - des[k]) / des[k];
    }
    const bool des_order = des[0] > des[1];  // CA slower than BL?
    const bool model_order = model[0] > model[1];
    trials[s].ordering_hit = (des_order == model_order);
  });
  // Reduce in trial order so every --jobs value prints the same report.
  double mape[3] = {0, 0, 0};
  int ordering_hits = 0;
  for (const Trial& trial : trials) {
    for (int k = 0; k < 3; ++k) mape[k] += trial.err[k];
    if (trial.ordering_hit) ++ordering_hits;
  }

  std::printf("# Analytic model vs DES (%d samples, scale %.2f)\n",
              options.samples, options.scale);
  for (int k = 0; k < 3; ++k)
    std::printf("%-4s mean abs error on total time: %5.1f%%\n",
                std::string(to_string(kinds[k])).c_str(),
                100.0 * mape[k] / options.samples);
  std::printf("CA-vs-BL ordering agreement: %d/%d\n", ordering_hits,
              options.samples);

  // Full-scale analytic Fig. 9 sweep (paper parameters, 500 samples/point).
  std::printf("\n# Analytic Figure 9(a) at FULL paper scale "
              "(500 samples/point, N_o 5000-6000 band)\n");
  std::printf("%-12s %10s %10s %10s\n", "N_o", "CA", "BL", "PL");
  for (const int center : {1000, 2000, 3000, 4000, 5000, 6000}) {
    ParamConfig full;
    full.n_objects = {center, center + 1000};
    Rng sweep_rng(options.seed);
    double total[3] = {0, 0, 0};
    for (int s = 0; s < 500; ++s) {
      const SampleParams sample = draw_sample(full, sweep_rng);
      for (int k = 0; k < 3; ++k)
        total[k] += estimate_strategy(kinds[k], sample).total_s / 500.0;
    }
    std::printf("%-12d %10.2f %10.2f %10.2f\n", center, total[0], total[1],
                total[2]);
  }
  return 0;
}
