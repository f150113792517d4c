// Extension experiment — concurrent query streams.
//
// The paper evaluates one query at a time; this harness submits a stream of
// identical global queries at decreasing interarrival times to ONE shared
// cluster, per strategy. As the offered load approaches the cluster's
// capacity, queueing between queries dominates: the strategy with the
// smaller per-query footprint sustains a higher arrival rate before latency
// blows up — strategy choice becomes a capacity decision, not just a
// single-query one.
//
// Flags are the shared harness's (bench/harness.hpp): --samples=N is the
// stream length in queries (default 8) and --scale=F the N_o multiplier
// (default 0.1), so --quick is the default run. The harness flags this
// experiment has no use for (--json, --trace, --faults, ...) and anything
// unparseable exit 2 with a usage line.
#include <cstdio>
#include <string_view>

#include "harness.hpp"
#include "isomer/core/stream.hpp"
#include "isomer/workload/synth.hpp"

int main(int argc, char** argv) {
  using namespace isomer;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg != "--quick" && arg != "--paper" &&
        !arg.starts_with("--samples=") && !arg.starts_with("--scale="))
      bench::usage_error(argv[0]);
  }
  const bench::HarnessOptions options_in = bench::parse_options(argc, argv);
  const int queries = options_in.samples_set ? options_in.samples : 8;
  const double scale = options_in.scale_set ? options_in.scale : 0.1;

  Rng rng(2024);
  ParamConfig config;
  config.n_objects = {static_cast<int>(5000 * scale),
                      static_cast<int>(6000 * scale)};
  config.n_classes = {3, 4};
  config.n_preds = {1, 3};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  StrategyOptions options;

  // Solo response time calibrates the interarrival sweep.
  const SimTime solo = execute_strategy(StrategyKind::BL, *synth.federation,
                                        synth.query, options)
                           .response_ns;

  std::printf("# Query streams: %d queries, N_o scale %.2f, interarrival as "
              "a fraction of the solo BL response (%.1f ms)\n",
              queries, scale, to_milliseconds(solo));
  std::printf("%-14s %12s %12s %12s\n", "interarrival", "CA mean[ms]",
              "BL mean[ms]", "PL mean[ms]");
  for (const double fraction : {2.0, 1.0, 0.5, 0.25, 0.1}) {
    const SimTime gap = static_cast<SimTime>(fraction * double(solo));
    std::printf("%-14.2f", fraction);
    for (const StrategyKind kind :
         {StrategyKind::CA, StrategyKind::BL, StrategyKind::PL}) {
      std::vector<StreamQuery> stream;
      for (int i = 0; i < queries; ++i)
        stream.push_back({synth.query, i * gap, kind});
      const StreamReport report =
          run_query_stream(*synth.federation, stream, options);
      std::printf(" %12.1f", report.mean_latency_ms());
    }
    std::printf("\n");
  }
  std::printf(
      "\nLower is better. Two regimes: while the cluster keeps up, latency\n"
      "tracks the solo response time and the localized strategies dominate;\n"
      "at saturation every query queues behind all earlier work, so mean\n"
      "latency tracks TOTAL work per query instead — and whichever strategy\n"
      "does less total work on this federation wins, which can flip the\n"
      "ordering. Capacity planning needs both numbers (the paper's response\n"
      "time and total execution time), which is precisely its point.\n");
  return 0;
}
