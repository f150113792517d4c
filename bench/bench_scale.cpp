// bench_scale — the predicate evaluator's scaling sweep (docs/PERFORMANCE.md).
//
// Sweeps the per-constituent object count across decades (default
// 10K -> 1M; pass --sizes=...,10000000 for the full 10M sweep) and, at each
// size, builds one deterministic two-database federation of a two-class
// reference chain whose classes each miss one predicate attribute at DB2 —
// so the sweep exercises the vectorized kernels, the schema-missing bulk
// path and navigation through reference columns (with null references).
//
// At every size the bench is its own at-scale parity check:
//   * at every home, BoundQuery::evaluate over every root and a per-object
//     BoundQuery::eval_predicate pass must agree on every outcome (truth,
//     unsolved holder and step) and on the meter — any divergence aborts
//     with a nonzero exit;
//   * up to --strategy-cap objects (default 200000, 0 = uncapped) CA/BL/PL
//     execute composed with --faults/--batch, and each answer must equal
//     reference_answer, or degraded_reference for the sites a run lost
//     under degrade=partial.
// Everything reported except the wall_* timings is deterministic in
// (--sizes, --samples, --seed, --faults, --batch) and invariant under
// --jobs: trials run on the pool but reduce in trial order.
//
// Extra flags on top of the common harness set (see --help):
//   --sizes=N[,N...]    per-constituent object counts to sweep
//   --strategy-cap=N    largest size that also runs full CA/BL/PL parity
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/fault/degrade.hpp"
#include "isomer/query/reach.hpp"

namespace {

using namespace isomer;
using namespace isomer::bench;

double wall_ms(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Two databases and a two-class chain: the root class C1 (both predicates
/// defined at DB1 with some value-level nulls, p1 schema-missing at DB2)
/// references the branch class C2 (half as many objects) through `ref`,
/// null for a fifth of the roots. C2's two predicates navigate one hop, and
/// its p1 is schema-missing at DB2, so both homes run navigation through
/// the reference column as well as the root kernels. Deterministic in
/// `seed`.
SampleParams make_sample(int n_objects, std::uint64_t seed) {
  SampleParams sample;
  sample.n_db = 2;
  sample.n_targets = 1;
  sample.iso_ratio = 0.3;
  for (const int objects : {n_objects, std::max(1, n_objects / 2)}) {
    SampleParams::PerClass cls;
    cls.n_preds = 2;
    cls.pred_selectivity = 0.45;
    cls.ref_ratio = 0.8;
    cls.dbs.resize(2);
    cls.dbs[0].n_objects = objects;
    cls.dbs[0].present_preds = {0, 1};
    cls.dbs[0].extra_missing = 0.1;
    cls.dbs[1].n_objects = objects;
    cls.dbs[1].present_preds = {0};
    sample.classes.push_back(std::move(cls));
  }
  sample.materialize_seed = seed;
  return sample;
}

bool same_outcome(const LocalPredOutcome& a, const LocalPredOutcome& b) {
  return a.truth == b.truth && a.holder == b.holder && a.step == b.step;
}

/// Times the per-object walk and the evaluator over every root at `db`,
/// adding the timings to `walk_ms`/`eval_ms`; false when any outcome or the
/// meters differ.
bool evaluator_matches_walk(const Federation& fed, const GlobalQuery& query,
                            DbId db, double& walk_ms, double& eval_ms) {
  const BoundQuery bound(fed, query);
  const BoundQuery::Site site = bound.site(db);
  const GlobalClass& range = fed.schema().cls(query.range_class);
  const Extent& roots = fed.db(db).extent(
      range.constituents()[*range.constituent_in(db)].local_class);
  const std::size_t n_preds = query.predicates.size();
  AccessMeter walk_meter, eval_meter;
  FetchCache walk_cache, eval_cache;

  std::vector<LOid> ids;
  for (const Object& obj : roots.objects()) ids.push_back(obj.id());

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<LocalPredOutcome> walked;
  walked.reserve(roots.size() * n_preds);
  for (const Object& obj : roots.objects())
    for (std::size_t p = 0; p < n_preds; ++p)
      walked.push_back(
          bound.eval_predicate(site, p, obj, 0, &walk_meter, &walk_cache));
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<std::vector<LocalPredOutcome>> evaluated =
      bound.evaluate(site, 0, ids, every_index(n_preds), &eval_meter,
                     &eval_cache);
  const auto t2 = std::chrono::steady_clock::now();
  walk_ms += wall_ms(t0, t1);
  eval_ms += wall_ms(t1, t2);

  if (!(walk_meter == eval_meter)) return false;
  for (std::size_t r = 0; r < roots.size(); ++r)
    for (std::size_t p = 0; p < n_preds; ++p)
      if (!same_outcome(walked[r * n_preds + p], evaluated[p][r]))
        return false;
  return true;
}

/// Deterministic per-(size, strategy) figures plus wall-clock timings.
struct SizeResult {
  std::int64_t size = 0;
  // Local parity sweep (summed over trials and home databases).
  std::uint64_t local_rows = 0;
  std::uint64_t local_comparisons = 0;
  std::uint64_t local_table_probes = 0;
  double wall_walk_ms = 0;  ///< per-object eval_predicate pass
  double wall_eval_ms = 0;  ///< BoundQuery::evaluate over the same roots
  // Full-strategy parity (empty when the size exceeds --strategy-cap).
  struct PerStrategy {
    StrategyKind kind{};
    double sim_total_s = 0;     ///< summed over trials (deterministic)
    double sim_response_s = 0;  ///< summed over trials (deterministic)
    double wall_ms = 0;
  };
  std::vector<PerStrategy> strategies;
  bool parity_ok = true;
};

SizeResult run_size(std::int64_t size, const HarnessOptions& options,
                    bool run_strategies) {
  const int samples = options.samples;
  std::vector<SizeResult> trials(static_cast<std::size_t>(samples));
  const bool faulting = options.faults_set && options.faults.plan.enabled();
  for_each_trial(samples, options.seed, options.jobs, [&](std::size_t s,
                                                          Rng& rng) {
    SizeResult& out = trials[s];
    out.size = size;
    const std::uint64_t trial_seed =
        derive_stream(rng(), static_cast<std::uint64_t>(size));
    const SynthFederation synth =
        materialize_sample(make_sample(static_cast<int>(size), trial_seed),
                           /*extra_attrs=*/0);
    const Federation& fed = *synth.federation;

    for (std::size_t i = 1; i <= 2; ++i) {
      const DbId db{static_cast<std::uint16_t>(i)};
      if (!evaluator_matches_walk(fed, synth.query, db, out.wall_walk_ms,
                                  out.wall_eval_ms))
        out.parity_ok = false;
      const LocalExecution exec = run_local_query(fed, synth.query, db);
      out.local_rows += exec.rows.size();
      out.local_comparisons += exec.meter.comparisons;
      out.local_table_probes += exec.meter.table_probes;
    }

    if (!run_strategies) return;
    fault::FaultPlan plan;
    if (faulting) {
      plan = options.faults.plan;
      plan.seed = derive_stream(
          derive_stream(options.seed, options.faults.plan.seed), s);
    }
    const QueryResult reference = reference_answer(fed, synth.query);
    for (const StrategyKind kind : kPaperStrategies) {
      StrategyOptions exec_options;
      if (options.batch_set) exec_options.batch = options.batch;
      if (faulting) {
        exec_options.faults = &plan;
        exec_options.retry = options.faults.retry;
        exec_options.degrade = options.faults.degrade;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const StrategyReport report =
          execute_strategy(kind, fed, synth.query, exec_options);
      const auto t1 = std::chrono::steady_clock::now();
      SizeResult::PerStrategy per;
      per.kind = kind;
      per.sim_total_s = to_seconds(report.total_ns);
      per.sim_response_s = to_seconds(report.response_ns);
      per.wall_ms = wall_ms(t0, t1);
      const bool partial = faulting && exec_options.degrade ==
                                           fault::DegradeMode::Partial;
      const std::set<DbId> lost(report.unavailable_sites.begin(),
                                report.unavailable_sites.end());
      if (report.result !=
          (partial ? fault::degraded_reference(fed, synth.query, lost)
                   : reference))
        out.parity_ok = false;
      out.strategies.push_back(per);
    }
  });

  // Reduce in trial order: deterministic figures are sums over trials, so
  // the report is invariant under --jobs.
  SizeResult total;
  total.size = size;
  if (run_strategies)
    for (const StrategyKind kind : kPaperStrategies)
      total.strategies.push_back({kind, 0, 0, 0});
  for (const SizeResult& t : trials) {
    total.parity_ok = total.parity_ok && t.parity_ok;
    total.local_rows += t.local_rows;
    total.local_comparisons += t.local_comparisons;
    total.local_table_probes += t.local_table_probes;
    total.wall_walk_ms += t.wall_walk_ms;
    total.wall_eval_ms += t.wall_eval_ms;
    for (std::size_t k = 0; k < t.strategies.size(); ++k) {
      total.strategies[k].sim_total_s += t.strategies[k].sim_total_s;
      total.strategies[k].sim_response_s += t.strategies[k].sim_response_s;
      total.strategies[k].wall_ms += t.strategies[k].wall_ms;
    }
  }
  return total;
}

void write_json(const char* path, const HarnessOptions& options,
                const std::vector<SizeResult>& results) {
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(file,
               "[\n  {\"format\": \"isomer-bench-scale-v2\", \"jobs\": %u, "
               "\"samples\": %d, \"seed\": %llu, \"batch\": \"%s\", "
               "\"faulted\": %s},\n",
               effective_jobs(options.jobs), options.samples,
               static_cast<unsigned long long>(options.seed),
               batch_spec_string(options.batch).c_str(),
               options.faults_set && options.faults.plan.enabled() ? "true"
                                                                   : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(file,
                 "  {\"size\": %lld, \"parity_ok\": %s, \"local_rows\": %llu, "
                 "\"local_comparisons\": %llu, \"local_table_probes\": %llu, "
                 "\"wall_walk_ms\": %.3f, \"wall_eval_ms\": %.3f",
                 static_cast<long long>(r.size), r.parity_ok ? "true" : "false",
                 static_cast<unsigned long long>(r.local_rows),
                 static_cast<unsigned long long>(r.local_comparisons),
                 static_cast<unsigned long long>(r.local_table_probes),
                 r.wall_walk_ms, r.wall_eval_ms);
    for (const SizeResult::PerStrategy& s : r.strategies)
      std::fprintf(file,
                   ", \"%s\": {\"sim_total_s\": %.9f, \"sim_response_s\": "
                   "%.9f, \"wall_ms\": %.3f}",
                   std::string(to_string(s.kind)).c_str(), s.sim_total_s,
                   s.sim_response_s, s.wall_ms);
    std::fprintf(file, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(file, "]\n");
  std::fclose(file);
}

}  // namespace

int main(int argc, char** argv) {
  // Split off the bench_scale-specific flags, hand the rest to the common
  // harness parser.
  std::vector<std::int64_t> sizes{10'000, 100'000, 1'000'000};
  std::int64_t strategy_cap = 200'000;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      const spec::Reader in("flag", arg, spec::raise<Error>);
      if (arg.starts_with("--sizes=")) {
        sizes.clear();
        for (const std::string_view item : in.split(arg.substr(8), ','))
          sizes.push_back(in.uint<std::int64_t>("--sizes", item, 1));
      } else if (arg.starts_with("--strategy-cap=")) {
        strategy_cap = in.uint<std::int64_t>("--strategy-cap", arg.substr(15));
      } else {
        rest.push_back(argv[i]);
      }
    } catch (const Error& error) {
      std::fprintf(stderr, "bench_scale: %s\n", error.what());
      return 2;
    }
  }
  HarnessOptions options =
      parse_options(static_cast<int>(rest.size()), rest.data());
  if (!options.samples_set) options.samples = 1;

  std::printf("# bench_scale: evaluator vs walk, %d sample(s)/size, seed "
              "%llu, jobs %u, batch %s%s\n",
              options.samples, static_cast<unsigned long long>(options.seed),
              effective_jobs(options.jobs),
              batch_spec_string(options.batch).c_str(),
              options.faults_set ? ", faulted" : "");
  std::printf("%12s %10s %14s %14s %8s  %s\n", "objects/db", "rows",
              "walk ms", "evaluator ms", "speedup", "strategies");

  std::vector<SizeResult> results;
  bool all_ok = true;
  for (const std::int64_t size : sizes) {
    const bool run_strategies = strategy_cap == 0 || size <= strategy_cap;
    SizeResult r = run_size(size, options, run_strategies);
    all_ok = all_ok && r.parity_ok;
    std::string strategy_note;
    for (const SizeResult::PerStrategy& s : r.strategies)
      strategy_note += std::string(to_string(s.kind)) + " " +
                       std::to_string(s.wall_ms / 1e3).substr(0, 5) + "s ";
    if (r.strategies.empty()) strategy_note = "(skipped: over --strategy-cap)";
    std::printf("%12lld %10llu %14.2f %14.2f %7.2fx  %s%s\n",
                static_cast<long long>(r.size),
                static_cast<unsigned long long>(r.local_rows), r.wall_walk_ms,
                r.wall_eval_ms,
                r.wall_eval_ms > 0 ? r.wall_walk_ms / r.wall_eval_ms : 0.0,
                strategy_note.c_str(), r.parity_ok ? "" : "  PARITY BROKEN");
    results.push_back(std::move(r));
  }
  if (!options.json_path.empty())
    write_json(options.json_path.c_str(), options, results);
  if (!all_ok) {
    std::fprintf(stderr,
                 "bench_scale: the evaluator diverged from the walk, or a "
                 "strategy from its reference answer\n");
    return 1;
  }
  std::printf("# parity: evaluator equals the walk (outcomes, meters); every "
              "answer equals its reference\n");
  return 0;
}
