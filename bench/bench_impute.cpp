// bench_impute — the IM strategy's wire-bytes-vs-answer-quality tradeoff
// (docs/IMPUTATION.md).
//
// Panel 1 sweeps a (network-cost multiplier × missingness rate R_m) grid and
// reports, per point, the average wire bytes of CA / BL / PL / IM plus IM's
// answer-quality figures: confident rows (certain with row confidence at or
// above the threshold), their precision against the *complete-data* ground
// truth, and the same restricted to rows whose certification consumed an
// estimate (confidence < 1). Ground truth is exact and free of simulation:
// the same drawn sample is re-materialized with R_m forced to zero — the
// value-null injection happens after every canonical draw, so the clean twin
// federation holds the identical entity universe — and answered through
// reference_answer().
//
// Panel 2 composes IM with fault injection: every assistant home is down for
// the whole run and the execution degrades partially. BL can then only
// return maybe/unavailable rows for anything needing an assistant check; IM
// upgrades the atoms the population model clears and still returns confident
// answers.
//
// The binary *asserts* the tentpole's acceptance criteria at the
// high-network-cost, high-missingness corner (fault-free) and in the outage
// panel, exiting nonzero on violation — registered as bench_impute_smoke in
// ctest. A user --faults spec is composed into an extra, assert-free panel
// (drop faults desynchronize the per-strategy RNG replay, so strict
// certain-row comparisons only hold under the built-in deterministic
// outages). --certcache=on attaches a per-trial cache to every certifying
// execution, exercising the certs-before-impute filter order end to end.
#include <array>
#include <set>

#include "isomer/core/cert_cache.hpp"

#include "harness.hpp"

namespace {

using namespace isomer;
using namespace isomer::bench;

/// Strategies of panel 1, in print order. IM rides last so its column sits
/// next to the quality figures derived from it.
constexpr StrategyKind kGridKinds[] = {StrategyKind::CA, StrategyKind::BL,
                                       StrategyKind::PL, StrategyKind::IM};
constexpr std::size_t kGridN = std::size(kGridKinds);

/// One grid point's trial-order-reduced figures.
struct GridPoint {
  std::array<double, kGridN> bytes_mb{};
  std::array<double, kGridN> response_s{};
  // IM answer quality, pooled over every trial at the point.
  double confident_rows = 0;   ///< certain rows with confidence >= thresh
  double confident_correct = 0;
  double imputed_rows = 0;     ///< confident rows that consumed an estimate
  double imputed_correct = 0;
  double imputed_atoms = 0;
  double declined_atoms = 0;
};

/// The clean twin of a drawn sample: R_m forced to zero everywhere. The
/// injection draws happen after the whole entity universe is drawn, so the
/// twin materializes the identical entities, LOids and GOids — only the
/// value nulls differ.
SampleParams clean_twin(SampleParams sample) {
  for (auto& cls : sample.classes)
    for (auto& db : cls.dbs) db.extra_missing = 0;
  return sample;
}

/// GOids of the ground truth's certain rows (complete data: all of them).
std::set<std::uint64_t> truth_certain(const SynthFederation& clean) {
  std::set<std::uint64_t> certain;
  const QueryResult truth = reference_answer(*clean.federation, clean.query);
  for (const ResultRow& row : truth.rows)
    if (row.status == ResultStatus::Certain) certain.insert(row.entity.value());
  return certain;
}

int failures = 0;
void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "bench_impute: ACCEPTANCE FAILED: %s\n", what);
  ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options = parse_options(argc, argv);

  // The sweep needs an *enabled* spec; without --impute (or with
  // --impute=off) it runs the documented default below. A missing value's
  // honest confidence ceiling is max(p, 1-p) of its ~0.45..0.67-selective
  // equality atom (times the near-1 resolution rate), i.e. barely above
  // one half for the typical Table-2 draw — thresh=0.5 sits right under
  // that ceiling, so the model clears traffic *and* discharges whole rows
  // at the defaults, while anything stricter keeps only the
  // high-selectivity tail.
  ImputeSpec spec = options.impute;
  if (!spec.enabled) {
    spec = parse_impute_spec("thresh=0.5");
    std::printf("# --impute off or absent: sweeping the default '%s'\n",
                to_string(spec).c_str());
  }
  const bool mar = spec.mechanism == ImputeMechanism::MAR;

  const std::vector<StrategyKind> kinds(std::begin(kGridKinds),
                                        std::end(kGridKinds));
  JsonSink json(options.json_path, options);
  TraceSink trace(options.trace_path, "bench_impute", options);

  // ---- Panel 1: fault-free (net-cost × R_m) grid. ----------------------
  const double net_mults[] = {1.0, 4.0, 16.0};
  const double miss_rates[] = {0.05, 0.15, 0.30};
  std::vector<GridPoint> grid;

  const auto run_grid_point = [&](double mult, double miss,
                                  const fault::FaultSpec* faults) {
    ParamConfig config;  // Table-2 defaults
    config.forced_missing_rate = miss;
    config.missing_mechanism =
        mar ? MissingMechanism::MAR : MissingMechanism::MCAR;
    apply_scale(config, options.scale);

    const bool faulting = faults != nullptr && faults->plan.enabled();
    const bool tracing = trace.enabled();
    std::vector<GridPoint> trials(static_cast<std::size_t>(options.samples));
    std::vector<obs::TraceSession> sessions(
        tracing ? trials.size() : std::size_t{0});
    for_each_trial(options.samples, options.seed, options.jobs,
                   [&](std::size_t s, Rng& rng) {
      const SampleParams sample = draw_sample(config, rng);
      const SynthFederation synth = materialize_sample(sample);
      const SynthFederation clean = materialize_sample(clean_twin(sample));
      const std::set<std::uint64_t> truth = truth_certain(clean);
      const ImputeModel model = ImputeModel::build(*synth.federation);

      fault::FaultPlan plan;
      if (faulting) {
        plan = faults->plan;
        plan.seed = derive_stream(derive_stream(options.seed, faults->plan.seed),
                                  s);
      }
      GridPoint& t = trials[s];
      for (std::size_t k = 0; k < kGridN; ++k) {
        // Each strategy gets its own *cold* cache: one cache shared across
        // the grid's strategies would let CA/BL/PL warm it and hand IM exact
        // verdicts, starving the impute filter of the very atoms the panel
        // measures (the certs filter deliberately runs first).
        CertCache cache(options.cert_cache_entries);
        StrategyOptions exec;
        if (tracing) exec.trace_session = &sessions[s];
        exec.costs.net_ns_per_byte = static_cast<SimTime>(
            static_cast<double>(exec.costs.net_ns_per_byte) * mult);
        if (options.batch_set) exec.batch = options.batch;
        if (options.cert_cache_enabled) exec.cert_cache = &cache;
        if (faulting) {
          exec.faults = &plan;
          exec.retry = faults->retry;
          exec.degrade = faults->degrade;
        }
        if (kGridKinds[k] == StrategyKind::IM) {
          exec.impute = &model;
          exec.impute_threshold = spec.threshold;
          exec.impute_mar = mar;
        }
        const StrategyReport report = execute_strategy(
            kGridKinds[k], *synth.federation, synth.query, exec);
        t.bytes_mb[k] =
            static_cast<double>(report.bytes_transferred) / 1e6;
        t.response_s[k] = to_seconds(report.response_ns);
        if (kGridKinds[k] != StrategyKind::IM) continue;
        t.imputed_atoms = static_cast<double>(report.imputed_atoms);
        t.declined_atoms = static_cast<double>(report.impute_declined);
        for (const ResultRow& row : report.result.rows) {
          if (row.status != ResultStatus::Certain ||
              row.confidence < spec.threshold)
            continue;
          const bool correct = truth.count(row.entity.value()) > 0;
          t.confident_rows += 1;
          t.confident_correct += correct ? 1 : 0;
          if (row.confidence < 1.0) {
            t.imputed_rows += 1;
            t.imputed_correct += correct ? 1 : 0;
          }
        }
      }
    });
    GridPoint point;  // reduce in trial order: --jobs-invariant
    for (std::size_t s = 0; s < trials.size(); ++s) {
      for (std::size_t k = 0; k < kGridN; ++k) {
        point.bytes_mb[k] += trials[s].bytes_mb[k];
        point.response_s[k] += trials[s].response_s[k];
      }
      point.confident_rows += trials[s].confident_rows;
      point.confident_correct += trials[s].confident_correct;
      point.imputed_rows += trials[s].imputed_rows;
      point.imputed_correct += trials[s].imputed_correct;
      point.imputed_atoms += trials[s].imputed_atoms;
      point.declined_atoms += trials[s].declined_atoms;
      if (tracing) trace.write_trial(s, sessions[s]);
    }
    for (std::size_t k = 0; k < kGridN; ++k) {
      point.bytes_mb[k] /= options.samples;
      point.response_s[k] /= options.samples;
    }
    return point;
  };

  std::printf("# bench_impute — avg wire bytes [MB] over the "
              "(T_net multiplier × R_m) grid, %d samples/point, "
              "N_o scale %.2f, impute spec '%s'\n",
              options.samples, options.scale, to_string(spec).c_str());
  std::printf("%-8s %-8s %10s %10s %10s %10s %10s\n", "T_net_x", "R_m", "CA",
              "BL", "PL", "IM", "IM_vs_BL");
  for (const double mult : net_mults)
    for (const double miss : miss_rates) {
      trace.set_point("impute_grid", "R_m", miss);
      const GridPoint point = run_grid_point(mult, miss, nullptr);
      grid.push_back(point);
      std::printf("%-8g %-8g %10.3f %10.3f %10.3f %10.3f %9.1f%%\n", mult,
                  miss, point.bytes_mb[0], point.bytes_mb[1],
                  point.bytes_mb[2], point.bytes_mb[3],
                  point.bytes_mb[1] > 0
                      ? (1.0 - point.bytes_mb[3] / point.bytes_mb[1]) * 100.0
                      : 0.0);
      for (std::size_t k = 0; k < kGridN; ++k) {
        char body[512];
        std::snprintf(body, sizeof body,
                      "\"figure\": \"impute_grid\", \"net_mult\": %.17g, "
                      "\"r_m\": %.17g, \"strategy\": \"%s\", "
                      "\"bytes_mb\": %.17g, \"response_s\": %.17g",
                      mult, miss,
                      std::string(to_string(kGridKinds[k])).c_str(),
                      point.bytes_mb[k], point.response_s[k]);
        json.raw_row(body);
      }
    }

  std::printf("\n# bench_impute — IM answer quality (pooled rows over all "
              "trials; precision vs complete-data ground truth)\n");
  std::printf("%-8s %-8s %10s %10s %10s %10s %12s %12s\n", "T_net_x", "R_m",
              "confident", "precision", "imputed", "precision", "atoms_imp",
              "atoms_decl");
  {
    std::size_t i = 0;
    for (const double mult : net_mults)
      for (const double miss : miss_rates) {
        const GridPoint& p = grid[i++];
        const double prec = p.confident_rows > 0
                                ? p.confident_correct / p.confident_rows
                                : 1.0;
        const double iprec =
            p.imputed_rows > 0 ? p.imputed_correct / p.imputed_rows : 1.0;
        std::printf("%-8g %-8g %10.0f %10.4f %10.0f %10.4f %12.0f %12.0f\n",
                    mult, miss, p.confident_rows, prec, p.imputed_rows, iprec,
                    p.imputed_atoms, p.declined_atoms);
        char body[512];
        std::snprintf(body, sizeof body,
                      "\"figure\": \"impute_quality\", \"net_mult\": %.17g, "
                      "\"r_m\": %.17g, \"confident_rows\": %.17g, "
                      "\"precision\": %.17g, \"imputed_rows\": %.17g, "
                      "\"imputed_precision\": %.17g, "
                      "\"imputed_atoms\": %.17g, \"declined_atoms\": %.17g",
                      mult, miss, p.confident_rows, prec, p.imputed_rows,
                      iprec, p.imputed_atoms, p.declined_atoms);
        json.raw_row(body);
      }
  }

  // Acceptance, tentpole criterion 1, at the high-net-cost high-R_m corner:
  // IM's wire bytes strictly undercut every certifying strategy, the model
  // actually imputed, and the confident rows hit the promised precision.
  {
    const GridPoint& corner = grid.back();
    const double im = corner.bytes_mb[3];
    check(corner.imputed_atoms > 0,
          "corner point imputed no atoms (model never cleared traffic)");
    check(im < corner.bytes_mb[0] && im < corner.bytes_mb[1] &&
              im < corner.bytes_mb[2],
          "IM wire bytes not strictly below min(CA, BL, PL) at the corner");
    check(corner.confident_rows > 0, "corner point has no confident rows");
    check(corner.confident_correct >=
              spec.threshold * corner.confident_rows,
          "confident-row precision below the confidence threshold");
  }

  // ---- Panel 2: every assistant home dead. -----------------------------
  // Built-in deterministic outages (no drops: certain-row comparisons need
  // both strategies to face the identical environment): every database but
  // DB1 is down from t=0, partial degradation. BL's assistant checks all
  // fail; IM's imputed atoms never ship.
  {
    ParamConfig config;
    config.forced_missing_rate = 0.30;
    config.missing_mechanism =
        mar ? MissingMechanism::MAR : MissingMechanism::MCAR;
    apply_scale(config, options.scale);
    fault::FaultSpec outage;
    for (std::uint16_t db = 2; db <= config.n_db; ++db)
      outage.plan.outages.push_back(
          fault::Outage{DbId{db}, 0, fault::kForever});
    outage.degrade = fault::DegradeMode::Partial;
    outage.retry.max_retries = 1;

    struct OutageTrial {
      double bl_certain = 0, im_certain = 0, im_imputed_rows = 0;
      double im_imputed_atoms = 0;
    };
    std::vector<OutageTrial> trials(static_cast<std::size_t>(options.samples));
    for_each_trial(options.samples, options.seed, options.jobs,
                   [&](std::size_t s, Rng& rng) {
      const SampleParams sample = draw_sample(config, rng);
      const SynthFederation synth = materialize_sample(sample);
      const ImputeModel model = ImputeModel::build(*synth.federation);
      for (const bool impute : {false, true}) {
        StrategyOptions exec;
        exec.faults = &outage.plan;
        exec.retry = outage.retry;
        exec.degrade = outage.degrade;
        if (impute) {
          exec.impute = &model;
          exec.impute_threshold = spec.threshold;
          exec.impute_mar = mar;
        }
        const StrategyReport report = execute_strategy(
            impute ? StrategyKind::IM : StrategyKind::BL, *synth.federation,
            synth.query, exec);
        OutageTrial& t = trials[s];
        if (!impute) {
          t.bl_certain = static_cast<double>(report.result.certain_count());
          continue;
        }
        t.im_certain = static_cast<double>(report.result.certain_count());
        t.im_imputed_atoms = static_cast<double>(report.imputed_atoms);
        for (const ResultRow& row : report.result.rows)
          if (row.status == ResultStatus::Certain && row.confidence < 1.0)
            t.im_imputed_rows += 1;
      }
    });
    OutageTrial pooled;
    for (const OutageTrial& t : trials) {
      pooled.bl_certain += t.bl_certain;
      pooled.im_certain += t.im_certain;
      pooled.im_imputed_rows += t.im_imputed_rows;
      pooled.im_imputed_atoms += t.im_imputed_atoms;
    }
    std::printf("\n# bench_impute — all assistant homes down from t=0 "
                "(degrade=partial, R_m=0.3; pooled rows over %d trials)\n",
                options.samples);
    std::printf("%-12s %12s %12s %14s\n", "strategy", "certain", "imputed",
                "atoms_imputed");
    std::printf("%-12s %12.0f %12s %14s\n", "BL", pooled.bl_certain, "-", "-");
    std::printf("%-12s %12.0f %12.0f %14.0f\n", "IM", pooled.im_certain,
                pooled.im_imputed_rows, pooled.im_imputed_atoms);
    char body[320];
    std::snprintf(body, sizeof body,
                  "\"figure\": \"impute_outage\", \"bl_certain\": %.17g, "
                  "\"im_certain\": %.17g, \"im_imputed_rows\": %.17g, "
                  "\"im_imputed_atoms\": %.17g",
                  pooled.bl_certain, pooled.im_certain, pooled.im_imputed_rows,
                  pooled.im_imputed_atoms);
    json.raw_row(body);

    // Acceptance, tentpole criterion 2: with every assistant dead, IM still
    // imputes (the filter runs at the live home before anything ships) and
    // returns strictly more confident answers than BL can certify.
    check(pooled.im_imputed_atoms > 0,
          "outage panel imputed no atoms");
    check(pooled.im_imputed_rows > 0,
          "outage panel produced no confident imputed rows");
    check(pooled.im_certain > pooled.bl_certain,
          "IM not strictly more certain rows than BL with assistants dead");
  }

  // ---- Optional panel 3: the user's --faults spec, composed, no asserts
  // (drop/spike faults desynchronize the per-strategy replay streams).
  if (options.faults_set && options.faults.plan.enabled()) {
    std::printf("\n# bench_impute — composed with --faults=%s "
                "(informational)\n",
                fault::to_string(options.faults).c_str());
    std::printf("%-8s %-8s %10s %10s %10s %10s\n", "T_net_x", "R_m", "CA",
                "BL", "PL", "IM");
    const GridPoint point = run_grid_point(4.0, 0.30, &options.faults);
    std::printf("%-8g %-8g %10.3f %10.3f %10.3f %10.3f\n", 4.0, 0.30,
                point.bytes_mb[0], point.bytes_mb[1], point.bytes_mb[2],
                point.bytes_mb[3]);
  }

  if (failures > 0) {
    std::fprintf(stderr, "bench_impute: %d acceptance check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("\nbench_impute: all acceptance checks passed\n");
  return 0;
}
