// Ablation — how the network contention model shapes the Fig. 10 story.
//
// The paper attributes part of the localized approaches' total-time growth
// to "the transfer time gets longer when more component databases transfer
// data simultaneously". Under pure FIFO serialization (SharedBus) contention
// delays transfers but burns no extra bandwidth, so it moves response time
// only; on a CSMA/CD-style medium (CollisionBus) contention burns real
// time, penalizing strategies that deliberately overlap transfers (PL).
// This harness reruns the Fig. 10 sweep under all four network models.
#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace isomer;
  using namespace isomer::bench;
  HarnessOptions options = parse_options(argc, argv);
  // Four topologies multiply the sweep; default to a lighter setting unless
  // the user asked for something specific.
  if (!options.samples_set) options.samples = 8;
  if (!options.scale_set) options.scale = 0.5;

  const std::vector<StrategyKind> kinds(std::begin(kPaperStrategies),
                                        std::end(kPaperStrategies));
  const NetworkTopology topologies[] = {
      NetworkTopology::SharedBus, NetworkTopology::PointToPoint,
      NetworkTopology::Contentionless, NetworkTopology::CollisionBus};
  const std::size_t db_counts[] = {2, 4, 6, 8};

  JsonSink json(options.json_path, options);
  for (const NetworkTopology topology : topologies) {
    std::printf("## network model: %s\n",
                std::string(to_string(topology)).c_str());
    std::vector<std::vector<SeriesPoint>> rows;
    for (const std::size_t n_db : db_counts) {
      ParamConfig config;
      config.n_db = n_db;
      apply_scale(config, options.scale);
      rows.push_back(run_point(config, kinds, options.samples, options.seed,
                               options.jobs, topology, 0.3, nullptr, nullptr,
                               options.batch_set ? &options.batch : nullptr));
      const std::string figure =
          "ablation-" + std::string(to_string(topology));
      json.rows(figure.c_str(), "N_db", static_cast<double>(n_db), kinds,
                rows.back());
    }

    print_header("total execution time [s] vs N_db", "N_db", kinds, options);
    for (std::size_t i = 0; i < rows.size(); ++i)
      print_row(static_cast<double>(db_counts[i]), rows[i], false);
    print_header("response time [s] vs N_db", "N_db", kinds, options);
    for (std::size_t i = 0; i < rows.size(); ++i)
      print_row(static_cast<double>(db_counts[i]), rows[i], true);
    std::printf("\n");
  }

  // ---- Access-path ablation: extent indexes (federation/indexes.hpp) let
  // the localized strategies skip full scans. Not in the paper's scan-based
  // cost model; this panel quantifies how much further indexes widen the
  // localized advantage. (CA is unaffected — it ships everything.)
  std::printf("## access-path ablation: BL with extent indexes\n");
  std::printf("%-8s %10s %10s %10s\n", "N_o", "CA", "BL", "BL+idx");
  for (const int center : {1000, 3000, 5000}) {
    ParamConfig config;
    config.n_objects = {center, center + 500};
    apply_scale(config, options.scale);
    StrategyOptions exec_options;
    struct Trial {
      double ca_s = 0, bl_s = 0, idx_s = 0;
    };
    std::vector<Trial> trials(static_cast<std::size_t>(options.samples));
    for_each_trial(options.samples, options.seed, options.jobs,
                   [&](std::size_t s, Rng& rng) {
      const SampleParams sample = draw_sample(config, rng);
      const SynthFederation synth = materialize_sample(sample);
      const ExtentIndexes indexes =
          ExtentIndexes::build(*synth.federation, synth.query);
      trials[s].ca_s = to_seconds(
          execute_strategy(StrategyKind::CA, *synth.federation, synth.query,
                           exec_options)
              .total_ns);
      trials[s].bl_s = to_seconds(
          execute_strategy(StrategyKind::BL, *synth.federation, synth.query,
                           exec_options)
              .total_ns);
      StrategyOptions with_indexes = exec_options;
      with_indexes.indexes = &indexes;
      trials[s].idx_s = to_seconds(
          execute_strategy(StrategyKind::BL, *synth.federation, synth.query,
                           with_indexes)
              .total_ns);
    });
    double ca_s = 0, bl_s = 0, idx_s = 0;
    for (const Trial& trial : trials) {
      ca_s += trial.ca_s / options.samples;
      bl_s += trial.bl_s / options.samples;
      idx_s += trial.idx_s / options.samples;
    }
    std::printf("%-8d %10.3f %10.3f %10.3f\n", center, ca_s, bl_s, idx_s);
  }
  return 0;
}
