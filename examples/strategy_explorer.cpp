// Strategy explorer: which execution strategy should a federation use?
//
// Sweeps the two parameters the paper found decisive — the number of
// component databases (Fig. 10) and the local-predicate selectivity
// (Fig. 11) — over generated Table-2 workloads, compares the strategies with
// both the discrete-event simulator and the closed-form analytic model, and
// prints a recommendation per regime.
//
//   $ ./strategy_explorer [samples] [scale]
#include <cstdio>
#include <cstdlib>

#include "isomer/analytic/model.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/workload/synth.hpp"

using namespace isomer;

namespace {

struct Outcome {
  double total[3] = {0, 0, 0};
  double response[3] = {0, 0, 0};
};

constexpr StrategyKind kKinds[3] = {StrategyKind::CA, StrategyKind::BL,
                                    StrategyKind::PL};

Outcome measure(const ParamConfig& config, int samples, std::uint64_t seed) {
  Rng rng(seed);
  StrategyOptions options;
  Outcome outcome;
  for (int s = 0; s < samples; ++s) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    for (int k = 0; k < 3; ++k) {
      const StrategyReport report = execute_strategy(
          kKinds[k], *synth.federation, synth.query, options);
      outcome.total[k] += to_seconds(report.total_ns) / samples;
      outcome.response[k] += to_seconds(report.response_ns) / samples;
    }
  }
  return outcome;
}

std::string best(const double (&xs)[3]) {
  int argmin = 0;
  for (int k = 1; k < 3; ++k)
    if (xs[k] < xs[argmin]) argmin = k;
  return std::string(to_string(kKinds[argmin]));
}

}  // namespace

int main(int argc, char** argv) {
  const int samples = argc > 1 ? std::atoi(argv[1]) : 6;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.1;

  std::printf("sweeping N_db (simulated, %d samples/point):\n", samples);
  std::printf("%-6s %28s %28s  %s\n", "N_db", "total CA/BL/PL [s]",
              "response CA/BL/PL [s]", "winner(total,resp)");
  for (const std::size_t n_db : {2ul, 4ul, 6ul, 8ul}) {
    ParamConfig config;
    config.n_db = n_db;
    config.n_objects = {static_cast<int>(5000 * scale),
                        static_cast<int>(6000 * scale)};
    const Outcome o = measure(config, samples, 77);
    std::printf("%-6zu %8.2f %9.2f %9.2f %8.2f %9.2f %9.2f   %s, ", n_db,
                o.total[0], o.total[1], o.total[2], o.response[0],
                o.response[1], o.response[2], best(o.total).c_str());
    std::printf("%s\n", best(o.response).c_str());
  }

  std::printf("\nsweeping local-predicate selectivity "
              "(simulated, %d samples/point):\n", samples);
  std::printf("%-6s %28s %28s  %s\n", "sel", "total CA/BL/PL [s]",
              "response CA/BL/PL [s]", "winner(total,resp)");
  for (const double sel : {0.1, 0.45, 0.9}) {
    ParamConfig config;
    config.n_objects = {static_cast<int>(1000 * scale) + 1,
                        static_cast<int>(2000 * scale) + 1};
    config.forced_root_selectivity = sel;
    const Outcome o = measure(config, samples, 78);
    std::printf("%-6.2f %8.2f %9.2f %9.2f %8.2f %9.2f %9.2f   %s, ", sel,
                o.total[0], o.total[1], o.total[2], o.response[0],
                o.response[1], o.response[2], best(o.total).c_str());
    std::printf("%s\n", best(o.response).c_str());
  }

  std::printf("\nanalytic estimate at full paper scale (no simulation):\n");
  ParamConfig full;
  Rng rng(79);
  double total[3] = {0, 0, 0};
  for (int s = 0; s < 200; ++s) {
    const SampleParams sample = draw_sample(full, rng);
    for (int k = 0; k < 3; ++k)
      total[k] += estimate_strategy(kKinds[k], sample).total_s / 200.0;
  }
  std::printf("  CA %.1f s, BL %.1f s, PL %.1f s -> recommend %s\n", total[0],
              total[1], total[2], best(total).c_str());

  std::printf(
      "\nrule of thumb (matches the paper's conclusion): BL is the best\n"
      "all-round strategy; CA only wins on tiny extents where its single\n"
      "round trip beats the localized protocol's extra hops.\n");
  return 0;
}
