// Serving-layer experiment — throughput and latency percentiles vs load.
//
// The figure harnesses measure one query at a time; bench_stream measures a
// fixed schedule. This harness measures the full serving stack
// (serve/server.hpp): queries *arrive*, pass admission, and a scheduling
// policy picks what runs next. Two panels:
//
//  1. Open loop: Poisson arrivals swept from light load to past the
//     cluster's calibrated capacity, per scheduling policy — throughput and
//     p50/p95/p99 latency per offered-load fraction. As the offered rate
//     crosses capacity, queueing delay dominates and the tail percentiles
//     blow up first.
//  2. Closed loop: N think-less clients over a bounded concurrency,
//     FIFO vs shortest-predicted-cost — the classic SJF result, mean
//     latency drops when short queries overtake long ones in the queue.
//
// Later panels add per-site planning on a skewed federation (3), the
// cross-query certificate cache (4), a multi-tenant mix — heavy vs light
// tenants under FIFO vs WFQ vs EDF, with per-tenant fairness and
// deadline-miss figures (5) — and in-flight cap autoscaling (6).
//
// Percentiles printed here are exact nearest-rank values over the
// completed submissions of all --samples trials (not the power-of-two
// histogram estimates; those go to --trace via the metrics summary). Every
// trial derives its own RNG stream and results reduce in trial order, so
// all output is byte-identical at any --jobs value. Composes with
// --faults (per-trial derived fault streams), --batch, --serve (which
// overrides the pool size-independent spec knobs: n, queue, inflight,
// think, clients, seed) and --certcache (panel 4: the cross-query
// certificate cache, docs/CONDITIONS.md).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/serve/planner.hpp"
#include "isomer/serve/server.hpp"
#include "isomer/workload/arrivals.hpp"

namespace {

using namespace isomer;

/// Latencies of one (load, policy) cell, pooled across trials.
struct CellStats {
  std::vector<SimTime> latencies;  ///< completed submissions, trial order
  double throughput_sum = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  int trials = 0;

  void fold(const serve::ServeReport& report) {
    for (const serve::ServeOutcome& outcome : report.outcomes)
      if (!outcome.rejected) latencies.push_back(outcome.latency());
    throughput_sum += report.throughput_qps();
    completed += report.completed;
    rejected += report.rejected;
    ++trials;
  }

  [[nodiscard]] double mean_ms() const {
    if (latencies.empty()) return 0;
    double total = 0;
    for (const SimTime latency : latencies) total += to_milliseconds(latency);
    return total / static_cast<double>(latencies.size());
  }

  /// Exact nearest-rank percentile over the pooled latencies, milliseconds.
  [[nodiscard]] double percentile_ms(double q) {
    if (latencies.empty()) return 0;
    std::sort(latencies.begin(), latencies.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies.size())));
    if (rank == 0) rank = 1;
    return to_milliseconds(latencies[rank - 1]);
  }

  [[nodiscard]] double throughput() const {
    return trials == 0 ? 0 : throughput_sum / trials;
  }
};

/// One serve() trial under the harness's fault/batch/plan composition.
/// Non-static planning gets a per-trial stats book: completed hybrid
/// executions feed observations back, and requests carrying replan knobs
/// re-plan at launch against it. The book lives and dies with the trial,
/// so trials stay independent and the run stays --jobs-invariant.
serve::ServeReport run_trial(const Federation& federation,
                             const std::vector<serve::ServeRequest>& pool,
                             serve::ServeSpec spec, std::size_t trial,
                             const bench::HarnessOptions& options,
                             serve::PlanMode planning,
                             std::vector<obs::TraceSession>* sessions,
                             CertCache* cert_cache = nullptr,
                             NetworkTopology topology =
                                 NetworkTopology::SharedBus) {
  serve::ServeOptions serve_options;
  serve_options.exec.batch = options.batch;
  serve_options.exec.cert_cache = cert_cache;
  serve_options.exec.topology = topology;
  serve_options.sessions = sessions;
  SiteStatsBook book;
  if (planning != serve::PlanMode::Static) serve_options.stats_book = &book;
  fault::FaultPlan plan;
  if (options.faults_set && options.faults.plan.enabled()) {
    // Same trial-seed mixing as run_point: each trial faces its own
    // reproducible fault environment (serve() further derives one stream
    // per submission from this).
    plan = options.faults.plan;
    plan.seed = derive_stream(
        derive_stream(options.seed, options.faults.plan.seed), trial);
    serve_options.exec.faults = &plan;
    serve_options.exec.retry = options.faults.retry;
    serve_options.exec.degrade = options.faults.degrade;
  }
  spec.seed = derive_stream(derive_stream(options.seed, spec.seed), trial);
  return serve::serve(federation, pool, spec, serve_options);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace isomer;
  bench::HarnessOptions options = bench::parse_options(argc, argv);
  // Serving runs execute n_queries full strategy simulations per trial, so
  // the unset defaults are lighter than the figure sweeps'.
  if (!options.samples_set) options.samples = 3;
  if (!options.scale_set) options.scale = 0.1;

  // One federation for the whole experiment (the serving layer multiplexes
  // queries over one deployment; re-drawing it per trial would measure the
  // generator, not the scheduler).
  Rng fed_rng(options.seed);
  ParamConfig config;
  config.n_classes = {3, 4};
  config.n_preds = {1, 3};
  config.n_targets = {1, 2};  // >= 1 target keeps the pool variants distinct
  config.n_objects = {static_cast<int>(5000 * options.scale),
                      static_cast<int>(6000 * options.scale)};
  const SampleParams sample = draw_sample(config, fed_rng);
  const SynthFederation synth = materialize_sample(sample);

  // A pool of query variants so concurrent requests are heterogeneous —
  // heterogeneity is what gives shortest-predicted-cost room to act.
  Rng pool_rng(derive_stream(options.seed, 1));
  const std::vector<GlobalQuery> queries =
      workload::derive_query_pool(synth.query, 6, pool_rng);

  // Planned pool: per-query strategy choice + SPC priority. --plan picks
  // the planning mode (docs/PLANNING.md): "static" asks the advisor for one
  // whole-federation strategy per query; "adaptive"/"hybrid" plan per home
  // site and re-plan at launch from each trial's stats book.
  const serve::PlanMode plan_mode = serve::parse_plan_mode(options.plan);
  serve::PlannerOptions planner;
  planner.mode = plan_mode;
  planner.advisor.batch = options.batch;
  const std::vector<serve::ServeRequest> pool =
      serve::plan_pool(*synth.federation, queries, planner);

  // Calibrate the capacity from measured solo responses: with C = inflight
  // concurrent executions and mean solo response s̄, the cluster absorbs
  // roughly C/s̄ queries per second (contention makes the true knee lower,
  // which is exactly what the sweep shows).
  StrategyOptions solo_options;
  solo_options.batch = options.batch;
  double solo_sum = 0;
  for (const serve::ServeRequest& request : pool)
    solo_sum += to_seconds(execute_strategy(request.kind, *synth.federation,
                                            request.query, solo_options)
                               .response_ns);
  const double mean_solo_s = solo_sum / static_cast<double>(pool.size());

  serve::ServeSpec base = options.serve;  // defaults unless --serve given
  if (!options.serve_set) {
    base.n_queries = 32;
    base.queue_limit = 0;  // unbounded: percentiles track queueing, not drops
    base.site_inflight = 2;
  }
  // Tenant clauses configure the tenant-mix panel below; the single-tenant
  // panels always run the untagged pool.
  base.tenants.clear();
  const double capacity_qps =
      static_cast<double>(base.site_inflight == 0 ? 4 : base.site_inflight) /
      mean_solo_s;

  bench::TraceSink trace(options.trace_path, "bench_serve", options);
  bench::JsonSink json(options.json_path, options);

  const std::vector<double> load_fractions{0.3, 0.6, 0.9, 1.2};
  const serve::SchedPolicy policies[] = {serve::SchedPolicy::Fifo,
                                         serve::SchedPolicy::Spc};

  std::printf("# Serving layer: open-loop Poisson sweep — %d trials/point, "
              "pool of %zu queries (plan=%s), n=%zu submissions/trial,\n"
              "# calibrated capacity %.1f q/s (inflight %zu, mean solo "
              "response %.1f ms). Latencies in ms, exact percentiles.\n",
              options.samples, pool.size(),
              std::string(to_string(plan_mode)).c_str(), base.n_queries,
              capacity_qps, base.site_inflight, mean_solo_s * 1e3);
  std::printf("%-10s %-8s %10s %10s %10s %10s %12s %9s\n", "load", "policy",
              "mean", "p50", "p95", "p99", "thrpt[q/s]", "rejected");

  for (const double fraction : load_fractions) {
    for (const serve::SchedPolicy policy : policies) {
      serve::ServeSpec spec = base;
      spec.mode = serve::ArrivalMode::Open;
      spec.rate_qps = fraction * capacity_qps;
      spec.policy = policy;

      const auto samples = static_cast<std::size_t>(options.samples);
      std::vector<serve::ServeReport> reports(samples);
      std::vector<std::vector<obs::TraceSession>> sessions(
          trace.enabled() ? samples : 0);
      bench::for_each_trial(options.samples, options.seed, options.jobs,
                            [&](std::size_t trial, Rng&) {
                              reports[trial] = run_trial(
                                  *synth.federation, pool, spec, trial,
                                  options, plan_mode,
                                  trace.enabled() ? &sessions[trial] : nullptr);
                            });

      // Reduce in trial order — output independent of --jobs.
      CellStats cell;
      obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
      trace.set_point("serve_open", "load_fraction", fraction);
      for (std::size_t trial = 0; trial < reports.size(); ++trial) {
        cell.fold(reports[trial]);
        serve::record_serve_metrics(reports[trial], metrics);
        if (trace.enabled())
          for (const obs::TraceSession& session : sessions[trial])
            trace.write_trial(trial, session);
      }

      const double mean = cell.mean_ms();
      const double p50 = cell.percentile_ms(0.50);
      const double p95 = cell.percentile_ms(0.95);
      const double p99 = cell.percentile_ms(0.99);
      std::printf("%-10.2f %-8s %10.2f %10.2f %10.2f %10.2f %12.2f %9llu\n",
                  fraction, std::string(to_string(policy)).c_str(), mean, p50,
                  p95, p99, cell.throughput(),
                  static_cast<unsigned long long>(cell.rejected));

      char body[512];
      std::snprintf(
          body, sizeof body,
          "\"figure\": \"serve_open\", \"x_name\": \"load_fraction\", "
          "\"x\": %.17g, \"policy\": \"%s\", \"rate_qps\": %.17g, "
          "\"mean_ms\": %.17g, \"p50_ms\": %.17g, \"p95_ms\": %.17g, "
          "\"p99_ms\": %.17g, \"throughput_qps\": %.17g, "
          "\"completed\": %llu, \"rejected\": %llu",
          fraction, std::string(to_string(policy)).c_str(), spec.rate_qps,
          mean, p50, p95, p99, cell.throughput(),
          static_cast<unsigned long long>(cell.completed),
          static_cast<unsigned long long>(cell.rejected));
      json.raw_row(body);
    }
  }

  // Closed loop: more clients than execution slots, zero think time — the
  // queue is never empty, so scheduling policy is the only difference.
  std::printf("\n# Closed loop: %s clients, zero think, FIFO vs SPC\n",
              options.serve_set ? "spec" : "8");
  std::printf("%-8s %10s %10s %10s %12s\n", "policy", "mean", "p95", "p99",
              "thrpt[q/s]");
  for (const serve::SchedPolicy policy : policies) {
    serve::ServeSpec spec = base;
    spec.mode = serve::ArrivalMode::Closed;
    if (!options.serve_set) {
      spec.clients = 8;
      spec.think_ns = 0;
    }
    spec.policy = policy;

    const auto samples = static_cast<std::size_t>(options.samples);
    std::vector<serve::ServeReport> reports(samples);
    bench::for_each_trial(options.samples, options.seed, options.jobs,
                          [&](std::size_t trial, Rng&) {
                            reports[trial] =
                                run_trial(*synth.federation, pool, spec,
                                          trial, options, plan_mode, nullptr);
                          });
    CellStats cell;
    for (const serve::ServeReport& report : reports) cell.fold(report);
    const double mean = cell.mean_ms();
    const double p95 = cell.percentile_ms(0.95);
    const double p99 = cell.percentile_ms(0.99);
    std::printf("%-8s %10.2f %10.2f %10.2f %12.2f\n",
                std::string(to_string(policy)).c_str(), mean, p95, p99,
                cell.throughput());

    char body[384];
    std::snprintf(body, sizeof body,
                  "\"figure\": \"serve_closed\", \"x_name\": \"policy\", "
                  "\"x\": %d, \"policy\": \"%s\", \"mean_ms\": %.17g, "
                  "\"p95_ms\": %.17g, \"p99_ms\": %.17g, "
                  "\"throughput_qps\": %.17g, \"completed\": %llu, "
                  "\"rejected\": %llu",
                  policy == serve::SchedPolicy::Spc ? 1 : 0,
                  std::string(to_string(policy)).c_str(), mean, p95, p99,
                  cell.throughput(),
                  static_cast<unsigned long long>(cell.completed),
                  static_cast<unsigned long long>(cell.rejected));
    json.raw_row(body);
  }

  // Panel 3 — per-site planning on a *skewed* federation. The pool panels
  // above draw statistically-alike sites, where one whole-federation
  // strategy is already near-optimal; this panel hand-builds the skew the
  // adaptive planner exists for (docs/PLANNING.md). DB1 is large and
  // evaluates every predicate locally (selective — a handful of rows beat
  // its wide extent), while DB2/DB3 cannot evaluate any predicate
  // (survive ~ 1 — their full row sets ship under BL, but their projected
  // extents are narrow because the predicate attributes are schema-level
  // missing). Pure CA overpays at DB1, pure BL/PL overpay at DB2/DB3; the
  // per-site plan ships rows from DB1 and extents from DB2/DB3.
  SampleParams skew;
  skew.n_db = 3;
  skew.n_targets = 2;
  skew.iso_ratio = 0.15;
  {
    SampleParams::PerClass root;
    root.n_preds = 2;
    root.pred_selectivity = 0.25;
    root.ref_ratio = 0.8;
    SampleParams::PerDb evaluating;  // DB1: all predicates present
    evaluating.n_objects =
        std::max(1, static_cast<int>(6000 * options.scale));
    evaluating.present_preds = {0, 1};
    SampleParams::PerDb blind;  // DB2/DB3: every predicate missing
    blind.n_objects = std::max(1, static_cast<int>(1000 * options.scale));
    root.dbs = {evaluating, blind, blind};
    skew.classes.push_back(std::move(root));
  }
  skew.materialize_seed = derive_stream(options.seed, 7);
  const SynthFederation skewed = materialize_sample(skew);
  Rng skew_rng(derive_stream(options.seed, 8));
  const std::vector<GlobalQuery> skew_queries =
      workload::derive_query_pool(skewed.query, 4, skew_rng);

  // One serving run per planning mode over the identical workload: the
  // paper's whole-federation strategies verbatim (CA/BL/PL), the advisor's
  // per-query pick (static), per-site planning with launch-time replanning
  // (adaptive), and adaptive with the armed mid-flight switch (hybrid).
  struct PlanRow {
    std::string mode;
    serve::PlanMode planning;
    std::vector<serve::ServeRequest> pool;
  };
  const auto pure_pool = [&](StrategyKind kind) {
    std::vector<serve::ServeRequest> pure;
    for (const GlobalQuery& query : skew_queries) {
      serve::ServeRequest request;
      request.query = query;
      request.kind = kind;
      pure.push_back(std::move(request));
    }
    return pure;
  };
  serve::PlannerOptions skew_planner;
  skew_planner.advisor.batch = options.batch;
  std::vector<PlanRow> plan_rows;
  for (const StrategyKind kind :
       {StrategyKind::CA, StrategyKind::BL, StrategyKind::PL})
    plan_rows.push_back(PlanRow{std::string(to_string(kind)),
                                serve::PlanMode::Static, pure_pool(kind)});
  for (const serve::PlanMode mode :
       {serve::PlanMode::Static, serve::PlanMode::Adaptive,
        serve::PlanMode::Hybrid}) {
    skew_planner.mode = mode;
    plan_rows.push_back(
        PlanRow{std::string(to_string(mode)), mode,
                serve::plan_pool(*skewed.federation, skew_queries,
                                 skew_planner)});
  }

  serve::ServeSpec plan_spec;  // FIFO: isolate wire traffic from scheduling
  plan_spec.mode = serve::ArrivalMode::Closed;
  plan_spec.clients = 4;
  plan_spec.think_ns = 0;
  plan_spec.n_queries = 24;
  plan_spec.queue_limit = 0;
  plan_spec.site_inflight = 2;
  plan_spec.policy = serve::SchedPolicy::Fifo;

  std::printf("\n# Skewed federation: DB1 evaluates both predicates locally "
              "(%d objects), DB2/DB3 neither (%d each) — per-site plans\n"
              "# vs the paper's whole-federation strategies. Closed loop, "
              "%zu submissions/trial, FIFO. Wire figures are per-trial "
              "cluster totals.\n",
              skew.classes[0].dbs[0].n_objects,
              skew.classes[0].dbs[1].n_objects, plan_spec.n_queries);
  std::printf("%-9s %12s %10s %10s %9s %9s\n", "mode", "wire[KB]", "msgs",
              "mean_ms", "hybrid", "switches");

  double best_static_wire = 0, adaptive_wire = 0;
  for (std::size_t m = 0; m < plan_rows.size(); ++m) {
    const PlanRow& row = plan_rows[m];
    const auto samples = static_cast<std::size_t>(options.samples);
    std::vector<serve::ServeReport> reports(samples);
    std::vector<std::vector<obs::TraceSession>> sessions(
        trace.enabled() ? samples : 0);
    bench::for_each_trial(
        options.samples, options.seed, options.jobs,
        [&](std::size_t trial, Rng&) {
          reports[trial] =
              run_trial(*skewed.federation, row.pool, plan_spec, trial,
                        options, row.planning,
                        trace.enabled() ? &sessions[trial] : nullptr);
        });

    CellStats cell;
    double wire_bytes = 0, messages = 0;
    std::uint64_t hybrid_runs = 0, switches = 0;
    trace.set_point("serve_plan", "mode", static_cast<double>(m));
    for (std::size_t trial = 0; trial < reports.size(); ++trial) {
      const serve::ServeReport& report = reports[trial];
      cell.fold(report);
      wire_bytes += static_cast<double>(report.bytes_transferred);
      messages += static_cast<double>(report.messages);
      for (const serve::ServeOutcome& outcome : report.outcomes) {
        hybrid_runs += outcome.hybrid ? 1 : 0;
        switches += outcome.plan_switches;
      }
      if (trace.enabled())
        for (const obs::TraceSession& session : sessions[trial])
          trace.write_trial(trial, session);
    }
    wire_bytes /= static_cast<double>(reports.size());
    messages /= static_cast<double>(reports.size());
    // "static" covers the pure strategies too: the advisor never prices
    // worse than its own candidates, but the pure rows anchor the paper's
    // baselines explicitly.
    if (row.planning == serve::PlanMode::Static)
      best_static_wire = best_static_wire == 0
                             ? wire_bytes
                             : std::min(best_static_wire, wire_bytes);
    if (row.mode == "adaptive") adaptive_wire = wire_bytes;

    const double mean = cell.mean_ms();
    std::printf("%-9s %12.1f %10.0f %10.2f %9llu %9llu\n", row.mode.c_str(),
                wire_bytes / 1e3, messages, mean,
                static_cast<unsigned long long>(hybrid_runs),
                static_cast<unsigned long long>(switches));

    char body[512];
    std::snprintf(
        body, sizeof body,
        "\"figure\": \"serve_plan\", \"x_name\": \"mode\", \"x\": %zu, "
        "\"mode\": \"%s\", \"wire_bytes\": %.17g, \"messages\": %.17g, "
        "\"mean_ms\": %.17g, \"throughput_qps\": %.17g, "
        "\"hybrid_runs\": %llu, \"plan_switches\": %llu",
        m, row.mode.c_str(), wire_bytes, messages, mean, cell.throughput(),
        static_cast<unsigned long long>(hybrid_runs),
        static_cast<unsigned long long>(switches));
    json.raw_row(body);
  }
  std::printf("adaptive wire %.1f KB vs best static %.1f KB (%s)\n",
              adaptive_wire / 1e3, best_static_wire / 1e3,
              adaptive_wire <= best_static_wire ? "adaptive <= best static"
                                                : "ADAPTIVE REGRESSION");

  // Panel 4 — cross-query certificate cache (docs/CONDITIONS.md). The SAME
  // pool is replayed as two identical waves per trial through ONE shared
  // CertCache: wave 1 runs cold and writes discharged certificates back,
  // wave 2 finds them warm, answers first-round check atoms locally, and
  // ships fewer assistant requests — so its wire total drops below wave
  // 1's. Open loop deliberately: the arrival schedule and pool picks are
  // pre-drawn from the spec seed, so both waves run the *identical*
  // submission sequence no matter how much faster the warm one finishes (a
  // closed loop would let completion times reshuffle the client picks and
  // the waves would no longer be comparable). With --certcache=off (the
  // default) no cache is attached and the waves are bitwise-identical by
  // construction; with --faults composed, degraded executions suppress
  // writeback, so the warm-wave saving shrinks but correctness is
  // untouched.
  serve::ServeSpec cert_spec = plan_spec;  // FIFO, 24 queries, inflight 2
  cert_spec.mode = serve::ArrivalMode::Open;
  cert_spec.rate_qps = 0.9 * capacity_qps;
  constexpr std::size_t kWaves = 2;
  const auto cert_samples = static_cast<std::size_t>(options.samples);
  std::vector<std::array<serve::ServeReport, kWaves>> cert_reports(
      cert_samples);
  std::vector<std::array<std::vector<obs::TraceSession>, kWaves>>
      cert_sessions(trace.enabled() ? cert_samples : 0);
  bench::for_each_trial(
      options.samples, options.seed, options.jobs,
      [&](std::size_t trial, Rng&) {
        // One cache per trial: waves share it (that is the experiment),
        // trials do not (that keeps them --jobs-invariant).
        CertCache cache(options.cert_cache_entries);
        CertCache* attached = options.cert_cache_enabled ? &cache : nullptr;
        for (std::size_t wave = 0; wave < kWaves; ++wave)
          cert_reports[trial][wave] = run_trial(
              *synth.federation, pool, cert_spec, trial, options, plan_mode,
              trace.enabled() ? &cert_sessions[trial][wave] : nullptr,
              attached);
      });

  std::printf("\n# Certificate cache (--certcache=%s): identical pool "
              "replayed twice per trial through one shared cache —\n"
              "# wave 1 cold, wave 2 warm. Wire figures are per-trial "
              "cluster totals averaged over %zu trials.\n",
              bench::certcache_spec_string(options).c_str(), cert_samples);
  std::printf("%-6s %12s %10s %10s %10s %10s\n", "wave", "wire[KB]", "msgs",
              "hits", "misses", "mean_ms");
  std::array<double, kWaves> wave_wire{};
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    CellStats cell;
    double wire = 0, msgs = 0;
    std::uint64_t hits = 0, misses = 0;
    trace.set_point("serve_cert", "wave", static_cast<double>(wave + 1));
    for (std::size_t trial = 0; trial < cert_samples; ++trial) {
      const serve::ServeReport& report = cert_reports[trial][wave];
      cell.fold(report);
      wire += static_cast<double>(report.bytes_transferred);
      msgs += static_cast<double>(report.messages);
      hits += report.cert_hits;
      misses += report.cert_misses;
      if (trace.enabled())
        for (const obs::TraceSession& session : cert_sessions[trial][wave])
          trace.write_trial(trial, session);
    }
    wire /= static_cast<double>(cert_samples);
    msgs /= static_cast<double>(cert_samples);
    wave_wire[wave] = wire;
    const double mean = cell.mean_ms();
    std::printf("%-6zu %12.1f %10.0f %10llu %10llu %10.2f\n", wave + 1,
                wire / 1e3, msgs, static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses), mean);

    char body[384];
    std::snprintf(body, sizeof body,
                  "\"figure\": \"serve_cert\", \"x_name\": \"wave\", "
                  "\"x\": %zu, \"certcache\": \"%s\", \"wire_bytes\": %.17g, "
                  "\"messages\": %.17g, \"cert_hits\": %llu, "
                  "\"cert_misses\": %llu, \"mean_ms\": %.17g",
                  wave + 1, bench::certcache_spec_string(options).c_str(),
                  wire, msgs, static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses), mean);
    json.raw_row(body);
  }
  if (options.cert_cache_enabled)
    std::printf("warm wave wire %.1f KB vs cold %.1f KB (%s)\n",
                wave_wire[1] / 1e3, wave_wire[0] / 1e3,
                wave_wire[1] < wave_wire[0]
                    ? "warm < cold"
                    : (options.faults_set
                           ? "faults suppressed writeback this run"
                           : "CACHE REGRESSION"));
  else
    std::printf("cache off: waves identical by construction "
                "(%.1f KB both)\n",
                wave_wire[0] / 1e3);

  // Panel 5 — tenant mix (docs/SERVING.md). Two traffic classes run the
  // SAME query mix over the same cluster: "gold" (weight 3, tight SLO) vs
  // "free" (weight 1, loose SLO), a closed loop with enough clients that
  // the queue never drains — so the scheduling policy alone decides who is
  // served. FIFO splits service evenly and lets gold blow its SLO; WFQ
  // converges each tenant's share of served work to its weight share;
  // EDF runs the tightest deadlines first and meets SLOs FIFO misses.
  // A --serve spec carrying tenant clauses overrides the whole panel spec.
  serve::ServeSpec tenant_spec;
  if (options.serve_set && !options.serve.tenants.empty()) {
    tenant_spec = options.serve;
  } else {
    serve::TenantSpec gold;
    gold.id = "gold";
    gold.weight = 3.0;
    gold.quota = 16;
    gold.slo_ns = static_cast<SimTime>(6.0 * mean_solo_s * 1e9);
    serve::TenantSpec free_tier;
    free_tier.id = "free";
    free_tier.weight = 1.0;
    free_tier.quota = 16;
    free_tier.slo_ns = static_cast<SimTime>(60.0 * mean_solo_s * 1e9);
    tenant_spec.mode = serve::ArrivalMode::Closed;
    tenant_spec.clients = 8;
    tenant_spec.think_ns = 0;
    tenant_spec.n_queries = 4 * base.n_queries;
    tenant_spec.queue_limit = 0;
    tenant_spec.site_inflight = 2;
    tenant_spec.seed = 0;
    tenant_spec.tenants = {gold, free_tier};
  }
  const std::vector<serve::TenantSpec>& tenants = tenant_spec.tenants;
  const std::vector<serve::ServeRequest> tenant_pool =
      serve::tag_tenants(pool, tenants);

  std::printf("\n# Tenant mix: %zu tenants share one cluster (", tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t)
    std::printf("%s%s w=%.3g slo=%.0fms", t == 0 ? "" : ", ",
                tenants[t].id.c_str(), tenants[t].weight,
                to_milliseconds(tenants[t].slo_ns));
  std::printf("),\n# %s, %zu submissions/trial. fairness = served-cost share "
              "/ weight share; miss = completed past arrival+SLO.\n",
              tenant_spec.mode == serve::ArrivalMode::Closed
                  ? "closed loop, zero think"
                  : "open loop",
              tenant_spec.n_queries);
  std::printf("%-8s %-8s %9s %9s %9s %10s %10s %10s %9s\n", "policy",
              "tenant", "completed", "rejected", "fairness", "p50", "p95",
              "p99", "miss");

  const serve::SchedPolicy mix_policies[] = {serve::SchedPolicy::Fifo,
                                             serve::SchedPolicy::Wfq,
                                             serve::SchedPolicy::Edf};
  std::uint64_t fifo_misses = 0, edf_misses = 0;
  double worst_wfq_skew = 0;  // max |fairness - 1| across tenants under WFQ
  for (std::size_t p = 0; p < std::size(mix_policies); ++p) {
    const serve::SchedPolicy policy = mix_policies[p];
    serve::ServeSpec spec = tenant_spec;
    spec.policy = policy;

    const auto samples = static_cast<std::size_t>(options.samples);
    std::vector<serve::ServeReport> reports(samples);
    std::vector<std::vector<obs::TraceSession>> sessions(
        trace.enabled() ? samples : 0);
    bench::for_each_trial(options.samples, options.seed, options.jobs,
                          [&](std::size_t trial, Rng&) {
                            reports[trial] = run_trial(
                                *synth.federation, tenant_pool, spec, trial,
                                options, plan_mode,
                                trace.enabled() ? &sessions[trial] : nullptr);
                          });

    // Reduce in trial order: pooled per-tenant latencies and summed
    // per-tenant work, so fairness is the long-run share across all trials.
    struct TenantCell {
      std::vector<SimTime> latencies;
      std::uint64_t completed = 0, rejected = 0, misses = 0;
      double served_cost = 0, weight = 0;
    };
    std::vector<TenantCell> cells(tenants.size());
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    trace.set_point("serve_tenants", "policy", static_cast<double>(p));
    for (std::size_t trial = 0; trial < reports.size(); ++trial) {
      const serve::ServeReport& report = reports[trial];
      for (const serve::ServeOutcome& outcome : report.outcomes)
        if (!outcome.rejected)
          cells[outcome.tenant].latencies.push_back(outcome.latency());
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        cells[t].completed += report.tenants[t].completed;
        cells[t].rejected += report.tenants[t].rejected;
        cells[t].misses += report.tenants[t].deadline_misses;
        cells[t].served_cost += report.tenants[t].served_cost_s;
        cells[t].weight = report.tenants[t].weight;
      }
      serve::record_serve_metrics(report, metrics);
      if (trace.enabled())
        for (const obs::TraceSession& session : sessions[trial])
          trace.write_trial(trial, session);
    }

    double total_cost = 0, total_weight = 0;
    for (const TenantCell& cell : cells) {
      total_cost += cell.served_cost;
      total_weight += cell.weight;
    }
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      TenantCell& cell = cells[t];
      std::sort(cell.latencies.begin(), cell.latencies.end());
      const auto pct = [&](double q) {
        if (cell.latencies.empty()) return 0.0;
        auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(cell.latencies.size())));
        if (rank == 0) rank = 1;
        return to_milliseconds(cell.latencies[rank - 1]);
      };
      const double fairness =
          total_cost <= 0 || cell.weight <= 0
              ? 0.0
              : (cell.served_cost / total_cost) /
                    (cell.weight / total_weight);
      const double miss_rate =
          cell.completed == 0 ? 0.0
                              : static_cast<double>(cell.misses) /
                                    static_cast<double>(cell.completed);
      if (policy == serve::SchedPolicy::Wfq)
        worst_wfq_skew = std::max(worst_wfq_skew, std::abs(fairness - 1.0));
      if (policy == serve::SchedPolicy::Fifo) fifo_misses += cell.misses;
      if (policy == serve::SchedPolicy::Edf) edf_misses += cell.misses;

      const double p50 = pct(0.50), p95 = pct(0.95), p99 = pct(0.99);
      std::printf("%-8s %-8s %9llu %9llu %9.3f %10.2f %10.2f %10.2f %8.1f%%\n",
                  std::string(to_string(policy)).c_str(), tenants[t].id.c_str(),
                  static_cast<unsigned long long>(cell.completed),
                  static_cast<unsigned long long>(cell.rejected), fairness,
                  p50, p95, p99, miss_rate * 100.0);

      char body[512];
      std::snprintf(
          body, sizeof body,
          "\"figure\": \"serve_tenants\", \"x_name\": \"policy\", "
          "\"x\": %zu, \"policy\": \"%s\", \"tenant\": \"%s\", "
          "\"weight\": %.17g, \"completed\": %llu, \"rejected\": %llu, "
          "\"fairness\": %.17g, \"p50_ms\": %.17g, \"p95_ms\": %.17g, "
          "\"p99_ms\": %.17g, \"deadline_miss_rate\": %.17g",
          p, std::string(to_string(policy)).c_str(), tenants[t].id.c_str(),
          cell.weight, static_cast<unsigned long long>(cell.completed),
          static_cast<unsigned long long>(cell.rejected), fairness, p50, p95,
          p99, miss_rate);
      json.raw_row(body);
    }
  }
  std::printf("wfq worst fairness skew %.1f%% (%s); edf deadline misses "
              "%llu vs fifo %llu (%s)\n",
              worst_wfq_skew * 100.0,
              worst_wfq_skew <= 0.10 ? "within 10% of weights"
                                     : "WFQ FAIRNESS REGRESSION",
              static_cast<unsigned long long>(edf_misses),
              static_cast<unsigned long long>(fifo_misses),
              edf_misses < fifo_misses
                  ? "edf < fifo"
                  : (edf_misses == fifo_misses ? "tie" : "EDF REGRESSION"));

  // Panel 6 — in-flight autoscaling. Runs on the contention-free ablation
  // network (NetworkTopology::Contentionless), where concurrent executions
  // genuinely overlap — so a deliberately tight cap (inflight=1) is the
  // ONLY cross-query serialization. (On the default shared bus the wire is
  // the bottleneck and no cap setting changes throughput; the autoscaler's
  // site-utilization gate correctly refuses to scale there.) Open loop at
  // 1.2x the one-slot capacity: with autoscale=off every arrival queues
  // behind a single execution slot; with autoscale=on the server notices
  // queue-wait p95 growing over idle sites and raises the cap.
  StrategyOptions solo_free_options = solo_options;
  solo_free_options.topology = NetworkTopology::Contentionless;
  double solo_free_sum = 0;
  for (const serve::ServeRequest& request : pool)
    solo_free_sum += to_seconds(
        execute_strategy(request.kind, *synth.federation, request.query,
                         solo_free_options)
            .response_ns);
  const double solo_free_s = solo_free_sum / static_cast<double>(pool.size());
  // The cap ramps one step per observation window, so the run needs enough
  // submissions for the ramp to amortize: 4x the sweep's n per trial.
  const std::size_t scale_n = 4 * base.n_queries;
  std::printf("\n# Autoscale: contention-free network, open loop at 1.2x "
              "the inflight=1 capacity (%.1f q/s), %zu submissions/trial.\n",
              1.2 / solo_free_s, scale_n);
  std::printf("%-10s %10s %10s %12s %9s\n", "autoscale", "p95", "p99",
              "thrpt[q/s]", "cap");
  for (const bool scaled : {false, true}) {
    serve::ServeSpec spec = base;
    spec.mode = serve::ArrivalMode::Open;
    spec.rate_qps = 1.2 / solo_free_s;
    spec.policy = serve::SchedPolicy::Fifo;
    spec.site_inflight = 1;
    spec.n_queries = scale_n;
    spec.autoscale = scaled;
    spec.tenants.clear();

    const auto samples = static_cast<std::size_t>(options.samples);
    std::vector<serve::ServeReport> reports(samples);
    bench::for_each_trial(options.samples, options.seed, options.jobs,
                          [&](std::size_t trial, Rng&) {
                            reports[trial] = run_trial(
                                *synth.federation, pool, spec, trial, options,
                                plan_mode, nullptr, nullptr,
                                NetworkTopology::Contentionless);
                          });
    CellStats cell;
    std::size_t cap_high = 0, cap_low = spec.site_inflight;
    for (const serve::ServeReport& report : reports) {
      cell.fold(report);
      cap_high = std::max(cap_high, report.inflight_cap_high);
      cap_low = std::min(cap_low, report.inflight_cap_low);
    }
    const double p95 = cell.percentile_ms(0.95);
    const double p99 = cell.percentile_ms(0.99);
    std::printf("%-10s %10.2f %10.2f %12.2f %5zu..%zu\n",
                scaled ? "on" : "off", p95, p99, cell.throughput(), cap_low,
                cap_high);

    char body[384];
    std::snprintf(body, sizeof body,
                  "\"figure\": \"serve_autoscale\", \"x_name\": "
                  "\"autoscale\", \"x\": %d, \"p95_ms\": %.17g, "
                  "\"p99_ms\": %.17g, \"throughput_qps\": %.17g, "
                  "\"cap_low\": %zu, \"cap_high\": %zu",
                  scaled ? 1 : 0, p95, p99, cell.throughput(), cap_low,
                  cap_high);
    json.raw_row(body);
  }

  std::printf(
      "\nOpen loop: past the capacity knee the tail percentiles grow first —\n"
      "every arrival queues behind unfinished work. Closed loop: SPC beats\n"
      "FIFO on mean latency by letting cheap queries overtake expensive ones\n"
      "(SJF), at identical throughput; the p99 gap narrows because the most\n"
      "expensive query pays for everyone's queue-jumping. Skewed panel: one\n"
      "strategy per federation overpays somewhere; pricing each home site\n"
      "separately ships rows where predicates filter and extents where they\n"
      "cannot, so adaptive wire stays at or below the best static column.\n"
      "Tenant mix: FIFO serves whoever queued first, so the heavy tenant's\n"
      "tight SLO starves; WFQ's virtual clock spaces each tenant's backlog\n"
      "by cost/weight, pinning long-run shares to the weights; EDF spends\n"
      "exactly the slack the loose tenant's SLO offers. Autoscale trades a\n"
      "little contention for queue-wait when the cap, not the cluster, is\n"
      "the bottleneck — and its site-utilization gate keeps it from buying\n"
      "pure contention when the cluster (the shared bus) is.\n");
  return 0;
}
