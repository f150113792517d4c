// Micro-benchmarks (google-benchmark) of the building blocks: extent scans,
// three-valued predicate evaluation, GOid-table probes, outerjoin
// materialization, signature screening, and the discrete-event engine.
// These measure the *wall-clock* cost of the library itself, not simulated
// time — useful when sizing full-scale (--paper) harness runs.
#include <benchmark/benchmark.h>

#include <chrono>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/core/certify.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/federation/goid_table.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/query/kernels.hpp"
#include "isomer/query/reach.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/sim/barrier.hpp"
#include "isomer/workload/synth.hpp"

namespace {

using namespace isomer;

SynthFederation make_synth(int objects, std::size_t n_db = 3) {
  Rng rng(1234);
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {objects, objects};
  config.n_classes = {3, 3};
  config.n_preds = {2, 2};
  SampleParams sample = draw_sample(config, rng);
  return materialize_sample(sample);
}

void BM_ExtentScan(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const ComponentDatabase& db = synth.federation->db(DbId{1});
  for (auto _ : state) {
    AccessMeter meter;
    benchmark::DoNotOptimize(db.scan("C1", &meter));
    benchmark::DoNotOptimize(meter.objects_scanned);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtentScan)->Arg(1000)->Arg(5000);

void BM_LocalQueryEvaluation(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    LocalExecution exec =
        run_local_query(*synth.federation, synth.query, DbId{1});
    benchmark::DoNotOptimize(exec.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LocalQueryEvaluation)->Arg(1000)->Arg(5000)->Arg(20000);

/// The synthetic query keeping only its predicates of `length` steps.
GlobalQuery navigating_query(const SynthFederation& synth,
                             std::int64_t length) {
  GlobalQuery query = synth.query;
  std::erase_if(query.predicates, [&](const Predicate& pred) {
    return pred.path.length() != static_cast<std::size_t>(length);
  });
  return query;
}

// A local query whose predicates all navigate: arg 0 selects the path
// length (2 or 3 steps through the synthetic class chain), arg 1 the
// extent size. A full scan evaluates them through the reference columns
// (one reach per path prefix, then a kernel pass at the terminal), so this
// times run_local_query's navigation after binding the query once.
void BM_BoundNavigation(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(1)));
  const GlobalQuery query = navigating_query(synth, state.range(0));
  for (auto _ : state) {
    LocalExecution exec = run_local_query(*synth.federation, query, DbId{1});
    benchmark::DoNotOptimize(exec.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BoundNavigation)
    ->Args({2, 1000})
    ->Args({3, 1000})
    ->Args({2, 5000})
    ->Args({3, 5000});

/// The 2-step predicates of BM_BoundNavigation over every root at DB1, arg
/// 0 objects per class and database, evaluated by BoundQuery::evaluate and
/// by a per-object BoundQuery::eval_predicate pass alternately in one
/// process (the order flips every iteration), as BM_PredicateEvalPaired
/// does. `nav_speedup` is the walk time over the evaluator time summed
/// across the repetition's iterations; tools/check_bench_micro.py gates its
/// median over repetitions. Both sides charge one meter through one buffer
/// pool and keep every outcome.
void BM_NavigationPaired(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const GlobalQuery query = navigating_query(synth, 2);
  const Federation& fed = *synth.federation;
  const BoundQuery bound(fed, query);
  const BoundQuery::Site site = bound.site(DbId{1});
  const GlobalClass& range = fed.schema().cls(query.range_class);
  const Extent& roots = fed.db(DbId{1}).extent(
      range.constituents()[*range.constituent_in(DbId{1})].local_class);
  std::vector<LOid> ids;
  for (const Object& obj : roots.objects()) ids.push_back(obj.id());
  const std::vector<std::uint32_t> preds =
      every_index(query.predicates.size());
  const auto walk = [&] {
    AccessMeter meter;
    FetchCache cache;
    std::vector<LocalPredOutcome> outcomes;
    outcomes.reserve(roots.size() * query.predicates.size());
    for (const Object& obj : roots.objects())
      for (std::size_t p = 0; p < query.predicates.size(); ++p)
        outcomes.push_back(bound.eval_predicate(site, p, obj, 0, &meter, &cache));
    benchmark::DoNotOptimize(outcomes.data());
  };
  const auto evaluate = [&] {
    AccessMeter meter;
    FetchCache cache;
    const std::vector<std::vector<LocalPredOutcome>> outcomes = bound.evaluate(
        site, 0, ids, preds, &meter, &cache);
    benchmark::DoNotOptimize(outcomes.data());
  };
  double walk_s = 0, eval_s = 0;
  const auto time = [](const auto& pass, double& total) {
    const Clock::time_point start = Clock::now();
    pass();
    total += std::chrono::duration<double>(Clock::now() - start).count();
  };
  bool walk_first = true;
  for (auto _ : state) {
    if (walk_first) {
      time(walk, walk_s);
      time(evaluate, eval_s);
    } else {
      time(evaluate, eval_s);
      time(walk, walk_s);
    }
    walk_first = !walk_first;
  }
  state.counters["nav_speedup"] = walk_s / eval_s;
}
BENCHMARK(BM_NavigationPaired)->Arg(5000);

// The centralized approach's phase P: every predicate of the synthetic
// query evaluated over a view materialized once, arg 0 objects per class
// and database. The view-side counterpart of BM_BoundNavigation: the same
// navigator under the view's storage policy.
void BM_EvaluateGlobal(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const GlobalSchema& schema = synth.federation->schema();
  const MaterializedView view =
      materialize(*synth.federation, classes_involved(schema, synth.query));
  for (auto _ : state) {
    QueryResult result = evaluate_global(view, schema, synth.query);
    benchmark::DoNotOptimize(result.rows.size());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(view.extent(synth.query.range_class).size()));
}
BENCHMARK(BM_EvaluateGlobal)->Arg(1000)->Arg(5000);

void BM_GoidProbe(benchmark::State& state) {
  const SynthFederation synth = make_synth(2000);
  const GoidTable& goids = synth.federation->goids();
  const ComponentDatabase& db = synth.federation->db(DbId{1});
  std::vector<LOid> ids;
  for (const Object& obj : db.extent("C1").objects()) ids.push_back(obj.id());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(goids.goid_of(ids[i++ % ids.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoidProbe);

void BM_Materialize(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const auto classes =
      classes_involved(synth.federation->schema(), synth.query);
  for (auto _ : state) {
    MaterializedView view = materialize(*synth.federation, classes);
    benchmark::DoNotOptimize(view.extent(synth.query.range_class).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Materialize)->Arg(1000)->Arg(5000);

void BM_SignatureBuild(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SignatureIndex index = SignatureIndex::build(*synth.federation);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureBuild)->Arg(1000);

void BM_SignatureScreen(benchmark::State& state) {
  const SynthFederation synth = make_synth(2000);
  const SignatureIndex index = SignatureIndex::build(*synth.federation);
  const ComponentDatabase& db = synth.federation->db(DbId{1});
  std::vector<LOid> ids;
  for (const Object& obj : db.extent("C2").objects()) ids.push_back(obj.id());
  // The token masks are built once per predicate, as plan_checks does.
  const SignatureIndex::Probe probe =
      SignatureIndex::probe("p0", Value{std::int64_t{0}});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.screen(ids[i++ % ids.size()], probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignatureScreen);

// ---- Row vs columnar hot loops (docs/PERFORMANCE.md) -----------------------
//
// The pairs below isolate the two hot paths the columnar work targets:
// simple-predicate evaluation over a whole extent, and LOid -> GOid probes.
// Each pair runs the same logical work through the row-at-a-time path and
// the vectorized / batched path so their ratio is the speedup
// tools/check_bench_micro.py watches. All report an explicit objects_per_s
// or probes_per_s rate counter in the JSON output.

/// One class, one Real attribute, ~1/16 of rows null (the missing-data case).
ComponentDatabase make_scan_db(std::int64_t n) {
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("Scan").add_attribute("v", PrimType::Real);
  ComponentDatabase db(std::move(schema));
  db.reserve("Scan", static_cast<std::size_t>(n));
  Rng rng(99);
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.bernoulli(1.0 / 16.0))
      db.insert("Scan");  // v stays null
    else
      db.insert("Scan", {{"v", Value(rng.uniform_real(0.0, 1000.0))}});
  }
  return db;
}

/// The row-at-a-time pass: `v < 500` applied object by object.
std::size_t row_pass(const std::vector<Object>& objects) {
  const Value literal{500.0};
  std::size_t trues = 0;
  for (const Object& obj : objects)
    trues += is_true(apply(CompOp::Lt, obj.value(0), literal)) ? 1u : 0u;
  return trues;
}

/// The same predicate through the vectorized kernel over the column.
std::size_t columnar_pass(const ColumnarExtent& columnar,
                          std::vector<Truth>& truths) {
  eval_predicate_column(columnar.column(0), columnar.rows(), CompOp::Lt,
                        Value{500.0}, truths.data());
  return count_truth(truths, Truth::True);
}

void BM_PredicateEvalRow(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const ComponentDatabase db = make_scan_db(n);
  const auto& objects = db.extent("Scan").objects();
  for (auto _ : state) benchmark::DoNotOptimize(row_pass(objects));
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["objects_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredicateEvalRow)->Arg(100'000)->Arg(1'000'000);

void BM_PredicateEvalColumnar(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const ComponentDatabase db = make_scan_db(n);
  const ColumnarExtent& columnar = db.extent("Scan").columnar();
  std::vector<Truth> truths(columnar.rows());
  for (auto _ : state)
    benchmark::DoNotOptimize(columnar_pass(columnar, truths));
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["objects_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredicateEvalColumnar)->Arg(100'000)->Arg(1'000'000);

/// The two passes above, timed alternately in one process: each iteration
/// runs the row pass and the columnar pass over the same extent (the order
/// flips every iteration), so a load spike from a neighbour lands on both
/// sides of the ratio. `columnar_speedup` is the row time over the columnar
/// time summed across the repetition's iterations;
/// tools/check_bench_micro.py gates its median over repetitions.
void BM_PredicateEvalPaired(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const ComponentDatabase db = make_scan_db(state.range(0));
  const auto& objects = db.extent("Scan").objects();
  const ColumnarExtent& columnar = db.extent("Scan").columnar();
  std::vector<Truth> truths(columnar.rows());
  double row_s = 0, columnar_s = 0;
  const auto time_row = [&] {
    const Clock::time_point start = Clock::now();
    benchmark::DoNotOptimize(row_pass(objects));
    row_s += std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto time_columnar = [&] {
    const Clock::time_point start = Clock::now();
    benchmark::DoNotOptimize(columnar_pass(columnar, truths));
    columnar_s += std::chrono::duration<double>(Clock::now() - start).count();
  };
  bool row_first = true;
  for (auto _ : state) {
    if (row_first) {
      time_row();
      time_columnar();
    } else {
      time_columnar();
      time_row();
    }
    row_first = !row_first;
  }
  state.counters["columnar_speedup"] = row_s / columnar_s;
}
BENCHMARK(BM_PredicateEvalPaired)->Arg(1'000'000);

/// n singleton entities with dense LOids 1..n plus a deterministically
/// shuffled probe order, so the probe loops below index the table's array
/// at random, cache-miss-bound like a real semijoin batch.
GoidTable make_goid_table(std::int64_t n, std::vector<LOid>& probe_order) {
  GoidTable goids;
  goids.reserve(static_cast<std::size_t>(n));
  probe_order.clear();
  probe_order.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const LOid id{DbId{1}, static_cast<std::uint32_t>(i + 1)};
    goids.register_entity("C", {id});
    probe_order.push_back(id);
  }
  Rng rng(5);
  for (std::size_t i = probe_order.size(); i > 1; --i)
    std::swap(probe_order[i - 1], probe_order[rng.index(i)]);
  return goids;
}

void BM_GoidProbeScalar(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const GoidTable goids = make_goid_table(n, order);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const LOid id : order) sum += goids.goid_of(id)->value();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["probes_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoidProbeScalar)->Arg(100'000)->Arg(1'000'000);

void BM_GoidProbeBatch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const GoidTable goids = make_goid_table(n, order);
  std::vector<GOid> out(order.size());
  for (auto _ : state) {
    goids.goids_of(order, out.data());
    benchmark::DoNotOptimize(out.front().value() + out.back().value());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["probes_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoidProbeBatch)->Arg(100'000)->Arg(1'000'000);

/// The node-based hash baseline: one big std::unordered_map, probed in the
/// same shuffled order. Kept as a benchmark (not production code) so the
/// dense array table's advantage over hashing stays measurable.
void BM_GoidProbeReferenceMap(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const GoidTable goids = make_goid_table(n, order);
  std::unordered_map<LOid, std::uint64_t> reference;
  reference.reserve(order.size());
  for (const LOid id : order) reference.emplace(id, goids.goid_of(id)->value());
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const LOid id : order) sum += reference.find(id)->second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["probes_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoidProbeReferenceMap)->Arg(100'000)->Arg(1'000'000);

/// Cold point lookups through the store: n objects in one database, probed
/// in shuffled order through ComponentDatabase::fetch with a fresh buffer
/// pool each pass, so every fetch resolves the LOid and charges the meter —
/// the navigation step phase P and the check protocol pay per object.
/// Compared against BM_GoidProbeReferenceMap: one node-based hash probe.
void BM_StoreFetch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("C").add_attribute("v", PrimType::Int);
  ComponentDatabase db(std::move(schema));
  db.reserve("C", static_cast<std::size_t>(n));
  std::vector<LOid> order;
  order.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) order.push_back(db.insert("C", {{"v", i}}));
  Rng rng(5);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.index(i)]);
  for (auto _ : state) {
    AccessMeter meter;
    FetchCache cache;
    for (const LOid id : order)
      benchmark::DoNotOptimize(db.fetch(id, &meter, &cache));
    benchmark::DoNotOptimize(meter.objects_fetched);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StoreFetch)->Arg(1'000'000);

/// Phase I alone: certify() over the local rows and check verdicts of every
/// home database of a synthetic federation (inputs prepared once, outside
/// the timed loop). Items are local rows certified.
void BM_Certify(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const Federation& federation = *synth.federation;
  std::vector<LocalExecution> locals;
  std::vector<CheckVerdict> verdicts;
  std::size_t rows = 0;
  for (const Constituent& home :
       federation.schema().cls(synth.query.range_class).constituents()) {
    locals.push_back(run_local_query(federation, synth.query, home.db));
    rows += locals.back().rows.size();
    CheckPlan plan =
        plan_checks(federation, synth.query, home.db,
                    unsolved_items_of_rows(locals.back().rows));
    while (plan.task_count() > 0) {  // checks with their cascades
      CheckPlan next;
      for (const auto& [target, tasks] : plan.by_target) {
        const CheckOutcome outcome =
            run_checks(federation, synth.query, target, tasks);
        verdicts.insert(verdicts.end(), outcome.verdicts.begin(),
                        outcome.verdicts.end());
        for (const auto& [cascade_target, cascade_tasks] :
             outcome.follow_up.by_target) {
          auto& bucket = next.by_target[cascade_target];
          bucket.insert(bucket.end(), cascade_tasks.begin(),
                        cascade_tasks.end());
        }
      }
      plan = std::move(next);
    }
  }
  for (auto _ : state) {
    // As maybe_certify calls it: with a meter and outcome stats.
    AccessMeter meter;
    CertifyStats stats;
    const QueryResult result =
        certify(federation, synth.query, locals, verdicts, &meter, &stats);
    benchmark::DoNotOptimize(result.rows.size());
    benchmark::DoNotOptimize(stats.unresolved_atoms);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  state.counters["verdicts"] = static_cast<double>(verdicts.size());
}
BENCHMARK(BM_Certify)->Arg(2000);


/// n shuffled (GOid, signature) certificate keys — probe order is
/// cache-miss-bound like a real repeated serving pool.
std::vector<std::pair<GOid, std::uint64_t>> make_cert_keys(std::int64_t n) {
  std::vector<std::pair<GOid, std::uint64_t>> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    keys.emplace_back(GOid{static_cast<std::uint64_t>(i + 1)},
                      0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(i + 1));
  Rng rng(5);
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.index(i)]);
  return keys;
}

/// Warm certificate-cache path: every lookup hits (the second serving wave
/// of bench_serve's panel 4). Paired with BM_CertCacheColdMisses below —
/// their ratio is the hit path's advantage over the miss+writeback path it
/// replaces, watched by tools/check_bench_micro.py.
void BM_CertCacheWarmHits(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto keys = make_cert_keys(n);
  CertCache cache;
  for (const auto& [goid, sig] : keys)
    cache.insert(goid, sig, /*epoch=*/1, Truth::True);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto& [goid, sig] : keys)
      sum += static_cast<std::uint64_t>(*cache.lookup(goid, sig, 1));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CertCacheWarmHits)->Arg(100'000);

/// Cold certificate-cache path: every lookup misses and writes back — the
/// first wave's cost, including the table growth a fresh cache pays.
void BM_CertCacheColdMisses(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto keys = make_cert_keys(n);
  for (auto _ : state) {
    CertCache cache;
    std::uint64_t found = 0;
    for (const auto& [goid, sig] : keys) {
      found += cache.lookup(goid, sig, 1).has_value() ? 1u : 0u;
      cache.insert(goid, sig, 1, Truth::True);
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CertCacheColdMisses)->Arg(100'000);

/// ImputeModel::build — the IM strategy's population fit: one scan per
/// constituent extent plus the covariate pass (analytic/impute.hpp). The
/// model is an auxiliary replicated structure like the signature index, so
/// this is its uncharged maintenance cost; items are stored objects
/// scanned. Watched by tools/check_bench_micro.py: throughput must not
/// collapse superlinearly between the two extent sizes.
void BM_ImputeModelBuild(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  std::uint64_t objects = 0;
  for (auto _ : state) {
    const ImputeModel model = ImputeModel::build(*synth.federation);
    objects = model.stats().objects_scanned;
    benchmark::DoNotOptimize(model.stats().estimators);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(objects));
}
BENCHMARK(BM_ImputeModelBuild)->Arg(1000)->Arg(5000);

/// ImputeOracle::decide — one check-atom estimate against a terminal
/// attribute with range(0) distinct values (20,000 entities of one class,
/// `v = i mod distinct`, predicate `v = distinct / 2`). Items are decide()
/// calls. Watched by tools/check_bench_micro.py: the terminal histogram is
/// ranked by two ordered searches, so the per-call cost must stay sublinear
/// in the number of distinct values between ~100 and ~10,000.
void BM_ImputeDecide(benchmark::State& state) {
  constexpr int kEntities = 20'000;
  const std::int64_t distinct = state.range(0);
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("T").add_attribute("v", PrimType::Int);
  auto db = std::make_unique<ComponentDatabase>(std::move(schema));
  GoidTable goids;
  for (int i = 0; i < kEntities; ++i)
    (void)goids.register_entity(
        "T", {db->insert("T", {{"v", Value(std::int64_t{i} % distinct)}})});
  GlobalSchema global;
  GlobalClass cls("T", {{DbId{1}, "T"}});
  cls.mutable_def().add_attribute("v", PrimType::Int);
  cls.pad_local_names();
  cls.bind_local_attr(0, 0, "v");
  global.add_class(std::move(cls));
  std::vector<std::unique_ptr<ComponentDatabase>> dbs;
  dbs.push_back(std::move(db));
  const Federation federation(std::move(global), std::move(dbs),
                              std::move(goids));
  const ImputeModel model = ImputeModel::build(federation);
  GlobalQuery query;
  query.range_class = "T";
  query.where("v", CompOp::Eq, Value(distinct / 2));
  const GOid item = federation.goids().entities_of("T").front();
  for (auto _ : state) {
    const ImputeOracle::Decision decision =
        model.decide(federation, query, item, 0, 0, DbId{1}, false);
    benchmark::DoNotOptimize(decision.confidence);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImputeDecide)->Arg(100)->Arg(10'000);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Resource resource(sim, "r");
    auto barrier = Barrier::create(10000, [] {});
    for (int i = 0; i < 10000; ++i) resource.use(10, barrier->arrival());
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_FullStrategyExecution(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(1)));
  const auto kind = static_cast<StrategyKind>(state.range(0));
  StrategyOptions options;
  for (auto _ : state) {
    StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    benchmark::DoNotOptimize(report.total_ns);
  }
}
BENCHMARK(BM_FullStrategyExecution)
    ->Args({static_cast<int>(StrategyKind::CA), 2000})
    ->Args({static_cast<int>(StrategyKind::BL), 2000})
    ->Args({static_cast<int>(StrategyKind::PL), 2000});

// Observability overhead: compares an execution with no TraceSession (the
// no-op path — a single pointer test per step) against one recording phase
// spans. Tracing *observes* the AccessMeter and simulated clock, it must
// never charge them, so the setup aborts the benchmark if the two paths'
// metered work, simulated times, or wire traffic diverge. Arg 0 selects
// untraced (0) or traced (1); Arg 1 is the strategy.
void BM_StrategyTraceOverhead(benchmark::State& state) {
  const SynthFederation synth = make_synth(2000);
  const auto kind = static_cast<StrategyKind>(state.range(1));
  StrategyOptions untraced;
  const StrategyReport baseline =
      execute_strategy(kind, *synth.federation, synth.query, untraced);
  obs::TraceSession probe_session;
  StrategyOptions traced = untraced;
  traced.trace_session = &probe_session;
  const StrategyReport probe =
      execute_strategy(kind, *synth.federation, synth.query, traced);
  if (!(probe.work == baseline.work)) {
    state.SkipWithError("tracing changed the execution's metered work");
    return;
  }
  if (probe.total_ns != baseline.total_ns ||
      probe.response_ns != baseline.response_ns ||
      probe.bytes_transferred != baseline.bytes_transferred ||
      probe.messages != baseline.messages) {
    state.SkipWithError("tracing changed the simulated cost figures");
    return;
  }
  if (probe_session.empty()) {
    state.SkipWithError("traced execution recorded no spans");
    return;
  }
  const bool trace_on = state.range(0) != 0;
  for (auto _ : state) {
    obs::TraceSession session;
    StrategyOptions options = untraced;
    if (trace_on) options.trace_session = &session;
    StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    benchmark::DoNotOptimize(report.work.comparisons);
    benchmark::DoNotOptimize(session.size());
  }
}
BENCHMARK(BM_StrategyTraceOverhead)
    ->Args({0, static_cast<int>(StrategyKind::BL)})
    ->Args({1, static_cast<int>(StrategyKind::BL)})
    ->Args({0, static_cast<int>(StrategyKind::CA)})
    ->Args({1, static_cast<int>(StrategyKind::CA)});

}  // namespace

BENCHMARK_MAIN();
