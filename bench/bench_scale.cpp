// bench_scale — row-vs-columnar scaling sweep (docs/PERFORMANCE.md).
//
// Sweeps the per-constituent object count across decades (default
// 10K -> 1M; pass --sizes=...,10000000 for the full 10M sweep) and, at each
// size, builds one deterministic two-database federation of a two-class
// reference chain whose classes each miss one predicate attribute at DB2 —
// so the sweep exercises the vectorized kernels, the schema-missing bulk
// path and navigation through reference columns (with null references).
//
// At every size the bench is its own at-scale parity check:
//   * the local query runs row-at-a-time and columnar at every home and the
//     two LocalExecutions must match field for field (rows, statuses,
//     meters) — any divergence aborts with a nonzero exit;
//   * up to --strategy-cap objects (default 200000, 0 = uncapped) CA/BL/PL
//     execute twice, columnar on and off, composed with --faults/--batch,
//     and the full StrategyReports must be bitwise identical.
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
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "isomer/core/local_exec.hpp"

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

bool same_status(const PredStatus& a, const PredStatus& b) {
  return a.truth == b.truth && a.item == b.item && a.step == b.step &&
         a.root_level == b.root_level;
}

bool same_exec(const LocalExecution& a, const LocalExecution& b) {
  if (a.db != b.db || !(a.meter == b.meter) || a.considered != b.considered ||
      a.rows.size() != b.rows.size())
    return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const LocalRow& x = a.rows[i];
    const LocalRow& y = b.rows[i];
    if (x.root != y.root || x.entity != y.entity || x.targets != y.targets ||
        x.preds.size() != y.preds.size())
      return false;
    for (std::size_t p = 0; p < x.preds.size(); ++p)
      if (!same_status(x.preds[p], y.preds[p])) return false;
  }
  return true;
}

bool same_report(const StrategyReport& a, const StrategyReport& b) {
  return a.result == b.result && a.response_ns == b.response_ns &&
         a.total_ns == b.total_ns && a.cpu_ns == b.cpu_ns &&
         a.disk_ns == b.disk_ns && a.net_ns == b.net_ns &&
         a.bytes_transferred == b.bytes_transferred &&
         a.messages == b.messages && a.work == b.work &&
         a.unavailable_sites == b.unavailable_sites &&
         a.retries == b.retries && a.failed_messages == b.failed_messages;
}

/// Deterministic per-(size, strategy) figures plus wall-clock timings.
struct SizeResult {
  std::int64_t size = 0;
  // Local parity sweep (summed over trials and home databases).
  std::uint64_t local_rows = 0;
  std::uint64_t local_comparisons = 0;
  std::uint64_t local_table_probes = 0;
  double wall_local_row_ms = 0;
  double wall_local_col_ms = 0;
  // Full-strategy parity (empty when the size exceeds --strategy-cap).
  struct PerStrategy {
    StrategyKind kind{};
    double sim_total_s = 0;     ///< summed over trials (deterministic)
    double sim_response_s = 0;  ///< summed over trials (deterministic)
    double wall_row_ms = 0;
    double wall_col_ms = 0;
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
      const auto t0 = std::chrono::steady_clock::now();
      const LocalExecution row_exec =
          run_local_query(fed, synth.query, db, nullptr, /*use_columnar=*/false);
      const auto t1 = std::chrono::steady_clock::now();
      const LocalExecution col_exec =
          run_local_query(fed, synth.query, db, nullptr, /*use_columnar=*/true);
      const auto t2 = std::chrono::steady_clock::now();
      out.wall_local_row_ms += wall_ms(t0, t1);
      out.wall_local_col_ms += wall_ms(t1, t2);
      if (!same_exec(row_exec, col_exec)) out.parity_ok = false;
      out.local_rows += row_exec.rows.size();
      out.local_comparisons += row_exec.meter.comparisons;
      out.local_table_probes += row_exec.meter.table_probes;
    }

    if (!run_strategies) return;
    fault::FaultPlan plan;
    if (faulting) {
      plan = options.faults.plan;
      plan.seed = derive_stream(
          derive_stream(options.seed, options.faults.plan.seed), s);
    }
    for (const StrategyKind kind : kPaperStrategies) {
      StrategyOptions exec_options;
      if (options.batch_set) exec_options.batch = options.batch;
      if (faulting) {
        exec_options.faults = &plan;
        exec_options.retry = options.faults.retry;
        exec_options.degrade = options.faults.degrade;
      }
      StrategyOptions row_options = exec_options;
      row_options.columnar = false;
      const auto t0 = std::chrono::steady_clock::now();
      const StrategyReport row_report =
          execute_strategy(kind, fed, synth.query, row_options);
      const auto t1 = std::chrono::steady_clock::now();
      const StrategyReport col_report =
          execute_strategy(kind, fed, synth.query, exec_options);
      const auto t2 = std::chrono::steady_clock::now();
      SizeResult::PerStrategy per;
      per.kind = kind;
      per.sim_total_s = to_seconds(col_report.total_ns);
      per.sim_response_s = to_seconds(col_report.response_ns);
      per.wall_row_ms = wall_ms(t0, t1);
      per.wall_col_ms = wall_ms(t1, t2);
      if (!same_report(row_report, col_report)) out.parity_ok = false;
      out.strategies.push_back(per);
    }
  });

  // Reduce in trial order: deterministic figures are sums over trials, so
  // the report is invariant under --jobs.
  SizeResult total;
  total.size = size;
  if (run_strategies)
    for (const StrategyKind kind : kPaperStrategies)
      total.strategies.push_back({kind, 0, 0, 0, 0});
  for (const SizeResult& t : trials) {
    total.parity_ok = total.parity_ok && t.parity_ok;
    total.local_rows += t.local_rows;
    total.local_comparisons += t.local_comparisons;
    total.local_table_probes += t.local_table_probes;
    total.wall_local_row_ms += t.wall_local_row_ms;
    total.wall_local_col_ms += t.wall_local_col_ms;
    for (std::size_t k = 0; k < t.strategies.size(); ++k) {
      total.strategies[k].sim_total_s += t.strategies[k].sim_total_s;
      total.strategies[k].sim_response_s += t.strategies[k].sim_response_s;
      total.strategies[k].wall_row_ms += t.strategies[k].wall_row_ms;
      total.strategies[k].wall_col_ms += t.strategies[k].wall_col_ms;
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
               "[\n  {\"format\": \"isomer-bench-scale-v1\", \"jobs\": %u, "
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
                 "\"wall_local_row_ms\": %.3f, \"wall_local_col_ms\": %.3f",
                 static_cast<long long>(r.size), r.parity_ok ? "true" : "false",
                 static_cast<unsigned long long>(r.local_rows),
                 static_cast<unsigned long long>(r.local_comparisons),
                 static_cast<unsigned long long>(r.local_table_probes),
                 r.wall_local_row_ms, r.wall_local_col_ms);
    for (const SizeResult::PerStrategy& s : r.strategies)
      std::fprintf(file,
                   ", \"%s\": {\"sim_total_s\": %.9f, \"sim_response_s\": "
                   "%.9f, \"wall_row_ms\": %.3f, \"wall_col_ms\": %.3f}",
                   std::string(to_string(s.kind)).c_str(), s.sim_total_s,
                   s.sim_response_s, s.wall_row_ms, s.wall_col_ms);
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

  std::printf("# bench_scale: row vs columnar, %d sample(s)/size, seed %llu, "
              "jobs %u, batch %s%s\n",
              options.samples, static_cast<unsigned long long>(options.seed),
              effective_jobs(options.jobs),
              batch_spec_string(options.batch).c_str(),
              options.faults_set ? ", faulted" : "");
  std::printf("%12s %10s %14s %14s %8s  %s\n", "objects/db", "rows",
              "local row ms", "local col ms", "speedup", "strategies");

  std::vector<SizeResult> results;
  bool all_ok = true;
  for (const std::int64_t size : sizes) {
    const bool run_strategies = strategy_cap == 0 || size <= strategy_cap;
    SizeResult r = run_size(size, options, run_strategies);
    all_ok = all_ok && r.parity_ok;
    std::string strategy_note;
    for (const SizeResult::PerStrategy& s : r.strategies) {
      strategy_note += std::string(to_string(s.kind)) + " " +
                       std::to_string(s.wall_row_ms / 1e3).substr(0, 5) +
                       "s/" + std::to_string(s.wall_col_ms / 1e3).substr(0, 5) +
                       "s ";
    }
    if (r.strategies.empty()) strategy_note = "(skipped: over --strategy-cap)";
    std::printf("%12lld %10llu %14.2f %14.2f %7.2fx  %s%s\n",
                static_cast<long long>(r.size),
                static_cast<unsigned long long>(r.local_rows),
                r.wall_local_row_ms, r.wall_local_col_ms,
                r.wall_local_col_ms > 0
                    ? r.wall_local_row_ms / r.wall_local_col_ms
                    : 0.0,
                strategy_note.c_str(), r.parity_ok ? "" : "  PARITY BROKEN");
    results.push_back(std::move(r));
  }
  if (!options.json_path.empty())
    write_json(options.json_path.c_str(), options, results);
  if (!all_ok) {
    std::fprintf(stderr,
                 "bench_scale: row and columnar executions diverged\n");
    return 1;
  }
  std::printf("# parity: every row/columnar pair identical (rows, meters, "
              "reports)\n");
  return 0;
}
