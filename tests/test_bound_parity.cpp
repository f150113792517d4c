// The navigator (query/navigate.hpp) runs under two storage policies —
// BoundQuery's component objects and the materializer's view — each over
// paths bound once per call instead of resolved by name per object. It
// must be observationally invisible: for every object it returns the
// by-name reference walker's outcome (truth, unsolved holder and step), the
// same target values, and the same AccessMeter counts; only wall-clock time
// may change. Checked against tests/eval_oracle.hpp over randomized
// federations:
//   * BoundParity draws hand-built four-class chains with 2- to 4-step
//     predicates, reference sets (some led by an Unknown branch), dangling
//     references, nulls at every step and attributes schema-missing at any
//     step, and covers phase P (full scans and index executions), PL
//     discovery, assistant checks from steps 1-3 (run_checks) and the
//     centralized outerjoin + evaluation;
//   * ViewParity checks the column view (cells, outerjoin meters, rows,
//     conditions and evaluation meters) against the oracle's row view on
//     federations with every column kind: Int cells past 2^53, a Real
//     attribute holding Int and Real values, strings and bools, reference
//     sets, references into another class's extent or database and to
//     unmapped LOids, an excluded site and CA's projection;
//   * CrossStorage checks the two policies against each other: on
//     one-database parity federations, run_local_query rows and
//     evaluate_global rows agree on truth, holder, step and targets;
//   * CachedEvalAgrees / CachedEval keep the Table-2 synthetic federations'
//     agreement and the per-call binding's edge cases.
#include <gtest/gtest.h>

#include <new>

#include "eval_oracle.hpp"
#include "isomer/core/checks.hpp"
#include "isomer/schema/integrator.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

// ---- A randomized federation exercising every evaluator branch -----------

constexpr std::size_t kChain = 4;  // classes C0 -> C1 -> C2 -> C3

std::string chain_class(std::size_t k) { return "C" + std::to_string(k); }

struct ParityFederation {
  std::unique_ptr<Federation> federation;
  GlobalQuery query;
};

/// Two or three databases, each defining every chain class, but each class
/// constituent drops some of `v`, `w` (Int), `ref` (single reference to the
/// next class) and `refs` (reference set) — every attribute survives in at
/// least one database, so the global classes define all of them. Entities
/// sit in random non-empty database subsets. Values are null with
/// probability ~0.2; references are null, dangling or real; reference sets
/// hold 0-3 members, some dangling.
ParityFederation make_parity_federation(std::uint64_t seed,
                                        bool one_database = false) {
  Rng rng(seed);
  const std::size_t drawn_db = 2 + rng.index(2);
  const std::size_t n_db = one_database ? 1 : drawn_db;
  const std::vector<std::string> attrs = {"v", "w", "ref", "refs"};
  // defines[db][k][a]
  std::vector<std::vector<std::vector<bool>>> defines(
      n_db, std::vector<std::vector<bool>>(kChain,
                                           std::vector<bool>(attrs.size())));
  for (std::size_t k = 0; k < kChain; ++k)
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      if (a >= 2 && k + 1 == kChain) continue;  // the chain's end
      bool any = false;
      for (std::size_t i = 0; i < n_db; ++i)
        any |= defines[i][k][a] = rng.bernoulli(0.7);
      if (!any) defines[rng.index(n_db)][k][a] = true;
    }

  std::vector<std::unique_ptr<ComponentDatabase>> databases;
  for (std::size_t i = 0; i < n_db; ++i) {
    ComponentSchema schema(DbId{static_cast<std::uint16_t>(i + 1)},
                           "DB" + std::to_string(i + 1));
    for (std::size_t k = 0; k < kChain; ++k) {
      ClassDef& def = schema.add_class(chain_class(k));
      if (defines[i][k][0]) def.add_attribute("v", PrimType::Int);
      if (defines[i][k][1]) def.add_attribute("w", PrimType::Int);
      if (defines[i][k][2])
        def.add_attribute("ref", ComplexType{chain_class(k + 1)});
      if (defines[i][k][3])
        def.add_attribute("refs", ComplexType{chain_class(k + 1), true});
    }
    schema.validate();
    databases.push_back(std::make_unique<ComponentDatabase>(std::move(schema)));
  }

  // Objects, the chain's end first so references can point at real objects.
  // by_db[k][db index]: the class's objects in that database.
  std::vector<std::vector<std::vector<LOid>>> by_db(
      kChain, std::vector<std::vector<LOid>>(n_db));
  GoidTable goids;
  for (std::size_t k = kChain; k-- > 0;) {
    const std::size_t n_entities = 4 + rng.index(8);
    for (std::size_t e = 0; e < n_entities; ++e) {
      std::vector<bool> present(n_db);
      bool any = false;
      for (std::size_t i = 0; i < n_db; ++i)
        any |= present[i] = rng.bernoulli(0.6);
      if (!any) present[rng.index(n_db)] = true;
      std::vector<LOid> isomers;
      for (std::size_t i = 0; i < n_db; ++i) {
        if (!present[i]) continue;
        ComponentDatabase& database = *databases[i];
        const DbId db = database.db();
        const LOid dangling{db, 100'000};
        const auto pick = [&]() -> LOid {
          const auto& pool = by_db[k + 1][i];
          if (pool.empty() || rng.bernoulli(0.15)) return dangling;
          return pool[rng.index(pool.size())];
        };
        std::vector<NamedValue> values;
        for (std::size_t a = 0; a < 2; ++a)
          if (defines[i][k][a] && !rng.bernoulli(0.2))
            values.emplace_back(attrs[a], Value(rng.uniform_int(0, 2)));
        if (defines[i][k][2] && !rng.bernoulli(0.15))
          values.emplace_back("ref", Value(LocalRef{pick()}));
        if (defines[i][k][3] && !rng.bernoulli(0.15)) {
          LocalRefSet set;
          for (std::size_t m = rng.index(4); m > 0; --m)
            set.targets.push_back(pick());
          values.emplace_back("refs", Value(std::move(set)));
        }
        const LOid id = database.insert(chain_class(k), values);
        isomers.push_back(id);
        by_db[k][i].push_back(id);
      }
      goids.register_entity(chain_class(k), isomers);
    }
  }

  IntegrationSpec spec;
  for (std::size_t k = 0; k < kChain; ++k) {
    ClassSpec& cls = spec.add_class(chain_class(k));
    for (const auto& database : databases)
      cls.constituents.push_back(Constituent{database->db(), chain_class(k)});
  }
  std::vector<const ComponentSchema*> schemas;
  for (const auto& database : databases) schemas.push_back(&database->schema());
  GlobalSchema global = integrate(schemas, spec);

  ParityFederation out;
  out.query.range_class = chain_class(0);
  const auto draw_path = [&](std::size_t length, bool primitive_end) {
    std::vector<std::string> steps;
    for (std::size_t s = 0; s + 1 < length; ++s)
      steps.push_back(rng.bernoulli(0.5) ? "ref" : "refs");
    const bool ref_end = !primitive_end && length < kChain && rng.bernoulli(0.3);
    steps.push_back(ref_end ? "ref" : (rng.bernoulli(0.5) ? "v" : "w"));
    return PathExpr(std::move(steps));
  };
  constexpr CompOp kOps[] = {CompOp::Eq, CompOp::Ne, CompOp::Lt,
                             CompOp::Le, CompOp::Gt, CompOp::Ge};
  for (std::size_t p = 2 + rng.index(4); p > 0; --p)
    out.query.predicates.push_back(
        Predicate{draw_path(rng.bernoulli(0.15) ? 1 : 2 + rng.index(3), true),
                  kOps[rng.index(6)], Value(rng.uniform_int(0, 2))});
  for (std::size_t t = 1 + rng.index(3); t > 0; --t)
    out.query.targets.push_back(draw_path(1 + rng.index(kChain), false));

  out.federation = std::make_unique<Federation>(
      std::move(global), std::move(databases), std::move(goids));
  return out;
}

void expect_same(const LocalPredOutcome& bound, const LocalPredOutcome& oracle) {
  EXPECT_EQ(bound.truth, oracle.truth);
  EXPECT_EQ(bound.holder, oracle.holder);
  EXPECT_EQ(bound.step, oracle.step);
}

/// The local class of global class `cls`'s constituent at `db`.
const std::string& local_class_at(const GlobalClass& cls, DbId db) {
  return cls.constituents()[*cls.constituent_in(db)].local_class;
}

/// Every cell the column view holds equals the oracle's row view: entity
/// order, and each projected attribute (all when `project` is null).
void expect_same_view(const MaterializedView& view,
                      const oracle::RowView& reference,
                      const std::vector<std::string>& classes,
                      const AttributeProjection* project) {
  for (const std::string& name : classes) {
    const MaterializedExtent& got = view.extent(name);
    const auto& want = reference.extent(name).objects();
    ASSERT_EQ(got.size(), want.size()) << name;
    const std::size_t attrs = got.cls().def().attribute_count();
    for (std::size_t a = 0; a < attrs; ++a) {
      const bool projected =
          project == nullptr ||
          is_complex(got.cls().def().attribute(a).type) ||
          (project->count(name) != 0 && project->at(name).count(a) != 0);
      EXPECT_EQ(got.projected(a), projected) << name << " attr " << a;
      if (!projected) continue;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got.entities()[i], want[i].id);
        EXPECT_EQ(got.cell(i, a), want[i].values[a])
            << name << " g" << want[i].id.value() << " attr " << a;
      }
    }
  }
}

/// Rows equal, and so does every maybe row's condition text.
void expect_same_result(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < got.rows.size(); ++i)
    EXPECT_EQ(got.rows[i].condition.to_string(),
              want.rows[i].condition.to_string());
}

class BoundParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundParity, RootPredicatesAndTargets) {
  const ParityFederation pf = make_parity_federation(GetParam());
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const GlobalClass& range = fed.schema().cls(query.range_class);
  const BoundQuery bound(fed, query);

  for (const DbId db : fed.db_ids()) {
    const BoundQuery::Site site = bound.site(db);
    const ComponentDatabase& database = fed.db(db);
    // One buffer pool per side across the extent, as a local execution.
    AccessMeter bound_meter, oracle_meter;
    FetchCache bound_cache, oracle_cache;
    for (const Object& obj : database.extent(chain_class(0)).objects()) {
      for (std::size_t p = 0; p < query.predicates.size(); ++p)
        expect_same(bound.eval_predicate(site, p, obj, 0, &bound_meter,
                                         &bound_cache),
                    oracle::eval_global_predicate_at(
                        fed, db, obj, range, query.predicates[p], 0,
                        &oracle_meter, &oracle_cache));
      for (std::size_t t = 0; t < query.targets.size(); ++t)
        EXPECT_EQ(
            bound.eval_target(site, t, obj, &bound_meter, &bound_cache),
            oracle::eval_global_path(fed, db, obj, range, query.targets[t],
                                     &oracle_meter, &oracle_cache));
    }
    EXPECT_EQ(bound_meter, oracle_meter);
  }
}

TEST_P(BoundParity, SuffixEvaluationFromEveryStep) {
  const ParityFederation pf = make_parity_federation(GetParam());
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const BoundQuery bound(fed, query);

  for (std::size_t p = 0; p < query.predicates.size(); ++p) {
    const Predicate& pred = query.predicates[p];
    const std::vector<std::string> classes =
        resolve_path(fed.schema().lookup(), query.range_class, pred.path)
            .classes_on_path();
    for (std::size_t k = 1; k < pred.path.length(); ++k) {
      const GlobalClass& cls = bound.step_class(p, k);
      ASSERT_EQ(cls.name(), classes[k]);
      for (const DbId db : fed.db_ids()) {
        const ComponentDatabase& database = fed.db(db);
        // Point lookups without a buffer pool, as assistant checks run.
        AccessMeter bound_meter, oracle_meter;
        for (const Object& obj :
             database.extent(local_class_at(cls, db)).objects())
          expect_same(
              bound.eval_predicate(bound.site(db), p, obj, k, &bound_meter),
              oracle::eval_global_predicate_at(fed, db, obj, cls, pred, k,
                                               &oracle_meter));
        EXPECT_EQ(bound_meter, oracle_meter);
      }
    }
  }
}

TEST_P(BoundParity, RunChecksFromSteps1To3) {
  const ParityFederation pf = make_parity_federation(GetParam());
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const GoidTable& goids = fed.goids();
  const BoundQuery bound(fed, query);

  for (std::size_t p = 0; p < query.predicates.size(); ++p) {
    const Predicate& pred = query.predicates[p];
    for (std::size_t k = 1; k < pred.path.length(); ++k) {
      const GlobalClass& cls = bound.step_class(p, k);
      for (const DbId target : fed.db_ids()) {
        // Every object of the step's class here, checked as an assistant.
        std::vector<CheckTask> tasks;
        std::vector<Truth> expected;
        std::vector<UnsolvedItem> cascaded;
        AccessMeter oracle_meter;
        const ComponentDatabase& database = fed.db(target);
        for (const Object& obj :
             database.extent(local_class_at(cls, target)).objects()) {
          const GOid item = *goids.goid_of(obj.id());
          tasks.push_back(CheckTask{item, obj.id(), p, k, item});
          (void)database.fetch(obj.id(), &oracle_meter);
          const LocalPredOutcome outcome = oracle::eval_global_predicate_at(
              fed, target, obj, cls, pred, k, &oracle_meter);
          expected.push_back(outcome.truth);
          if (is_unknown(outcome.truth) && outcome.step > k) {
            const GOid deeper = *goids.goid_of(outcome.holder, &oracle_meter);
            cascaded.push_back(UnsolvedItem{deeper, p, outcome.step, item});
          }
        }
        const CheckOutcome outcome = run_checks(fed, query, target, tasks);
        ASSERT_EQ(outcome.verdicts.size(), tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          EXPECT_EQ(outcome.verdicts[i].truth, expected[i]);
          EXPECT_EQ(outcome.verdicts[i].item, tasks[i].origin);
        }
        EXPECT_EQ(outcome.meter, oracle_meter);
        std::sort(cascaded.begin(), cascaded.end());
        const CheckPlan follow_up = plan_checks(fed, query, target, cascaded);
        EXPECT_EQ(outcome.follow_up.by_target, follow_up.by_target);
        EXPECT_EQ(outcome.follow_up.meter, follow_up.meter);
      }
    }
  }
}

TEST_P(BoundParity, LocalQueryAndDiscoveryMatchTheWalk) {
  const ParityFederation pf = make_parity_federation(GetParam());
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const GoidTable& goids = fed.goids();
  const GlobalClass& range = fed.schema().cls(query.range_class);

  for (const DbId db : fed.db_ids()) {
    const ComponentDatabase& database = fed.db(db);
    // PL discovery, as unsolved_items_of_all_roots walked it.
    std::vector<UnsolvedItem> items;
    AccessMeter discovery;
    FetchCache cache;
    for (const Object& obj :
         database.scan(chain_class(0), &discovery, &cache)) {
      std::vector<Truth> truths;
      for (std::size_t p = 0; p < query.predicates.size(); ++p) {
        if (query.predicates[p].path.length() == 1) continue;
        const LocalPredOutcome outcome = oracle::eval_global_predicate_at(
            fed, db, obj, range, query.predicates[p], 0, &discovery, &cache);
        if (is_unknown(outcome.truth) && outcome.step > 0) {
          const GOid entity = *goids.goid_of(outcome.holder, &discovery);
          items.push_back(UnsolvedItem{entity, p, outcome.step, entity});
        }
      }
    }
    discovery.comparisons = 0;
    std::sort(items.begin(), items.end());
    AccessMeter meter;
    EXPECT_EQ(unsolved_items_of_all_roots(fed, query, db, &meter), items);
    EXPECT_EQ(meter, discovery);

    // Phase P: rows, every PredStatus field and the meter.
    EXPECT_EQ(oracle::exec_difference(run_local_query(fed, query, db),
                                      oracle::run_local_query(fed, query, db)),
              "")
        << "DB" << db.value();
  }
}

TEST_P(BoundParity, IndexExecutionsMatchTheWalkAndTheScan) {
  const ParityFederation pf = make_parity_federation(GetParam());
  const Federation& fed = *pf.federation;
  // A root equality, so every database defining `v` answers from its index
  // (matches plus the null bucket); the query stays conjunctive.
  GlobalQuery query = pf.query;
  query.where("v", CompOp::Eq, Value(static_cast<int>(GetParam() % 3)));
  const ExtentIndexes indexes = ExtentIndexes::build(fed, query);
  ASSERT_GT(indexes.index_count(), 0u);

  const auto by_root = [](LocalExecution exec) {
    std::sort(exec.rows.begin(), exec.rows.end(),
              [](const LocalRow& a, const LocalRow& b) {
                return a.root < b.root;
              });
    exec.meter = {};
    exec.considered = 0;
    return exec;
  };
  for (const DbId db : fed.db_ids()) {
    const LocalExecution via_index = run_local_query(fed, query, db, &indexes);
    EXPECT_EQ(oracle::exec_difference(
                  via_index, oracle::run_local_query(fed, query, db, &indexes)),
              "")
        << "DB" << db.value();
    EXPECT_EQ(oracle::exec_difference(by_root(via_index),
                                      by_root(run_local_query(fed, query, db))),
              "")
        << "DB" << db.value();
  }
}

TEST_P(BoundParity, MaterializedSideMatchesTheWalk) {
  const ParityFederation pf = make_parity_federation(GetParam());
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const std::vector<std::string> classes =
      classes_involved(fed.schema(), query);
  const std::set<DbId> exclude{fed.db_ids().back()};

  for (const MergePolicy policy :
       {MergePolicy::FirstNonNull, MergePolicy::UnionSets}) {
    for (const std::set<DbId>* excluded : {
             static_cast<const std::set<DbId>*>(nullptr), &exclude}) {
      AccessMeter bound_meter, oracle_meter;
      const MaterializedView view =
          materialize(fed, classes, &bound_meter, policy, excluded);
      const oracle::RowView reference = oracle::materialize(
          fed, classes, &oracle_meter, policy, excluded);
      EXPECT_EQ(bound_meter, oracle_meter);
      expect_same_view(view, reference, classes, nullptr);

      AccessMeter eval_meter, walk_meter;
      const QueryResult result =
          evaluate_global(view, fed.schema(), query, &eval_meter);
      const QueryResult walked =
          oracle::evaluate_global(reference, fed.schema(), query, &walk_meter);
      expect_same_result(result, walked);
      EXPECT_EQ(eval_meter, walk_meter);

      // The projection CA_C1 ships: the same charges, cells and answer.
      const AttributeProjection involved =
          involved_attributes(fed.schema(), query);
      AccessMeter projected_meter;
      const MaterializedView projected = materialize(
          fed, classes, &projected_meter, policy, excluded, &involved);
      EXPECT_EQ(projected_meter, oracle_meter);
      expect_same_view(projected, reference, classes, &involved);
      AccessMeter projected_eval;
      expect_same_result(
          evaluate_global(projected, fed.schema(), query, &projected_eval),
          walked);
      EXPECT_EQ(projected_eval, walk_meter);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundParity,
                         ::testing::Range<std::uint64_t>(900, 940));

// ---- The two storage policies against each other -------------------------

class CrossStorage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossStorage, LocalRowsMatchTheViewOnOneDatabase) {
  // On one database the view holds the component objects themselves, so
  // the navigator must read them alike through either storage: the same
  // surviving roots and, per predicate, the same truth, holder (through the
  // GOid table) and step, and the same target values — empty and dangling
  // reference sets included.
  const ParityFederation pf = make_parity_federation(GetParam(), true);
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const LocalExecution exec = run_local_query(fed, query, fed.db_ids().front());
  const QueryResult global =
      evaluate_global(materialize(fed, classes_involved(fed.schema(), query)),
                      fed.schema(), query);

  EXPECT_EQ(exec.rows.size(), global.rows.size());
  for (const LocalRow& local : exec.rows) {
    const ResultRow* row = global.find(local.entity);
    ASSERT_NE(row, nullptr) << "entity g" << local.entity.value();
    EXPECT_EQ(row->status == ResultStatus::Certain, local.locally_certain());
    EXPECT_EQ(row->targets, local.targets);
    const std::vector<CondAtom> atoms = row->condition.atoms();
    for (std::size_t p = 0; p < query.predicates.size(); ++p) {
      const PredStatus& status = local.preds[p];
      const auto atom =
          std::find_if(atoms.begin(), atoms.end(),
                       [&](const CondAtom& a) { return a.predicate == p; });
      ASSERT_EQ(atom != atoms.end(), is_unknown(status.truth)) << "p" << p;
      if (atom == atoms.end()) continue;
      EXPECT_EQ(atom->item, status.item);
      EXPECT_EQ(atom->step, status.step);
      EXPECT_EQ(atom->root_level, status.root_level);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossStorage,
                         ::testing::Range<std::uint64_t>(900, 940));

// ---- The column view against the row view --------------------------------

/// Two or three databases with global classes P and Q. P holds an Int `n`
/// (some values 2^53+1, which a double rounds), a Real `r` holding both Int
/// and Real values, a String `s`, a Bool `b`, a reference `q` and a
/// reference set `qs` to Q; Q holds `n`, `r`, `s` and `b`. Each database
/// drops some attributes. References are null, real, dangling, into another
/// database's Q, into P (another class's extent) or to an unmapped LOid (an
/// object of a local class no global class integrates).
ParityFederation make_view_federation(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n_db = 2 + rng.index(2);
  constexpr std::int64_t kBig = (std::int64_t{1} << 53) + 1;
  const std::vector<std::string> p_attrs = {"n", "r", "s", "b", "q", "qs"};
  const std::vector<std::string> q_attrs = {"n", "r", "s", "b"};
  // defines[db][attr]: whether the database's P (then Q) defines it.
  const auto draw_defines = [&](std::size_t count) {
    std::vector<std::vector<bool>> defines(n_db, std::vector<bool>(count));
    for (std::size_t a = 0; a < count; ++a) {
      bool any = false;
      for (std::size_t i = 0; i < n_db; ++i)
        any |= defines[i][a] = rng.bernoulli(0.7);
      if (!any) defines[rng.index(n_db)][a] = true;
    }
    return defines;
  };
  const auto p_defines = draw_defines(p_attrs.size());
  const auto q_defines = draw_defines(q_attrs.size());

  std::vector<std::unique_ptr<ComponentDatabase>> databases;
  for (std::size_t i = 0; i < n_db; ++i) {
    ComponentSchema schema(DbId{static_cast<std::uint16_t>(i + 1)},
                           "DB" + std::to_string(i + 1));
    schema.add_class("Junk").add_attribute("n", PrimType::Int);
    const auto add_primitives = [](ClassDef& def,
                                   const std::vector<bool>& defines) {
      if (defines[0]) def.add_attribute("n", PrimType::Int);
      if (defines[1]) def.add_attribute("r", PrimType::Real);
      if (defines[2]) def.add_attribute("s", PrimType::String);
      if (defines[3]) def.add_attribute("b", PrimType::Bool);
    };
    add_primitives(schema.add_class("Q"), q_defines[i]);
    ClassDef& p = schema.add_class("P");
    add_primitives(p, p_defines[i]);
    if (p_defines[i][4]) p.add_attribute("q", ComplexType{"Q"});
    if (p_defines[i][5]) p.add_attribute("qs", ComplexType{"Q", true});
    schema.validate();
    databases.push_back(std::make_unique<ComponentDatabase>(std::move(schema)));
  }

  const auto primitive = [&](std::size_t a) -> Value {
    switch (a) {
      case 0:
        return rng.bernoulli(0.2) ? Value(kBig) : Value(rng.uniform_int(0, 2));
      case 1:
        if (rng.bernoulli(0.5)) return Value(rng.uniform_int(0, 2));
        return Value(0.5 * static_cast<double>(rng.uniform_int(0, 4)));
      case 2:
        return Value(std::string(1, static_cast<char>('a' + rng.index(3))));
      default:
        return Value(rng.bernoulli(0.5));
    }
  };
  const auto primitives = [&](const std::vector<bool>& defines) {
    std::vector<NamedValue> values;
    for (std::size_t a = 0; a < 4; ++a)
      if (defines[a] && !rng.bernoulli(0.2))
        values.emplace_back(q_attrs[a], primitive(a));
    return values;
  };

  GoidTable goids;
  std::vector<std::vector<LOid>> junk(n_db), qs(n_db), ps(n_db);
  for (std::size_t i = 0; i < n_db; ++i)
    for (int k = 0; k < 2; ++k)
      junk[i].push_back(databases[i]->insert("Junk", {{"n", Value(k)}}));
  // Entities sit in random non-empty database subsets.
  const auto register_entities = [&](const std::string& cls,
                                     std::vector<std::vector<LOid>>& by_db,
                                     const auto& insert) {
    for (std::size_t e = 3 + rng.index(6); e > 0; --e) {
      std::vector<bool> present(n_db);
      bool any = false;
      for (std::size_t i = 0; i < n_db; ++i)
        any |= present[i] = rng.bernoulli(0.6);
      if (!any) present[rng.index(n_db)] = true;
      std::vector<LOid> isomers;
      for (std::size_t i = 0; i < n_db; ++i) {
        if (!present[i]) continue;
        isomers.push_back(insert(i));
        by_db[i].push_back(isomers.back());
      }
      (void)goids.register_entity(cls, isomers);
    }
  };
  register_entities("Q", qs, [&](std::size_t i) {
    return databases[i]->insert("Q", primitives(q_defines[i]));
  });
  const auto pick = [&](std::size_t i) -> LOid {
    const DbId db = databases[i]->db();
    switch (rng.index(8)) {
      case 0:
        return LOid{db, 100'000};  // dangling
      case 1:
        return junk[i][rng.index(junk[i].size())];  // unmapped
      case 2: {
        const std::size_t other = rng.index(n_db);  // maybe another database
        if (!qs[other].empty()) return qs[other][rng.index(qs[other].size())];
        return LOid{db, 100'000};
      }
      case 3:
        if (!ps[i].empty()) return ps[i][rng.index(ps[i].size())];  // a P
        [[fallthrough]];
      default:
        if (qs[i].empty()) return LOid{db, 100'000};
        return qs[i][rng.index(qs[i].size())];
    }
  };
  register_entities("P", ps, [&](std::size_t i) {
    std::vector<NamedValue> values = primitives(p_defines[i]);
    if (p_defines[i][4] && !rng.bernoulli(0.15))
      values.emplace_back("q", Value(LocalRef{pick(i)}));
    if (p_defines[i][5] && !rng.bernoulli(0.15)) {
      LocalRefSet set;
      for (std::size_t m = rng.index(4); m > 0; --m)
        set.targets.push_back(pick(i));
      values.emplace_back("qs", Value(std::move(set)));
    }
    return databases[i]->insert("P", values);
  });

  IntegrationSpec spec;
  for (const char* name : {"Q", "P"}) {
    ClassSpec& cls = spec.add_class(name);
    for (const auto& database : databases)
      cls.constituents.push_back(Constituent{database->db(), name});
  }
  std::vector<const ComponentSchema*> schemas;
  for (const auto& database : databases) schemas.push_back(&database->schema());
  GlobalSchema global = integrate(schemas, spec);

  ParityFederation out;
  out.query.range_class = "P";
  const auto terminal = [&]() { return q_attrs[rng.index(q_attrs.size())]; };
  const auto draw_path = [&](const std::string& end) {
    switch (rng.index(3)) {
      case 0:
        return PathExpr({end});
      case 1:
        return PathExpr({"q", end});
      default:
        return PathExpr({"qs", end});
    }
  };
  for (std::size_t p = 1 + rng.index(4); p > 0; --p) {
    const std::string end = terminal();
    Value literal = end == "n"   ? Value(rng.bernoulli(0.3) ? kBig : 1)
                    : end == "r" ? Value(1.0)
                    : end == "s" ? Value("b")
                                 : Value(true);
    if (rng.bernoulli(0.1)) literal = Value::null();
    constexpr CompOp kOps[] = {CompOp::Eq, CompOp::Ne, CompOp::Lt,
                               CompOp::Le, CompOp::Gt, CompOp::Ge};
    // Bools are equality-comparable only.
    const CompOp op = kOps[rng.index(end == "b" ? 2 : 6)];
    out.query.predicates.push_back(Predicate{draw_path(end), op, literal});
  }
  for (std::size_t t = 1 + rng.index(3); t > 0; --t) {
    const std::size_t pick_target = rng.index(4);
    out.query.targets.push_back(pick_target == 0   ? PathExpr({"q"})
                                : pick_target == 1 ? PathExpr({"qs"})
                                                   : draw_path(terminal()));
  }
  out.federation = std::make_unique<Federation>(
      std::move(global), std::move(databases), std::move(goids));
  return out;
}

class ViewParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewParity, ColumnsMatchTheRowView) {
  const ParityFederation pf = make_view_federation(GetParam());
  const Federation& fed = *pf.federation;
  const GlobalQuery& query = pf.query;
  const std::vector<std::string> classes = {"P", "Q"};
  const AttributeProjection involved =
      involved_attributes(fed.schema(), query);
  const std::set<DbId> exclude{fed.db_ids().front()};

  for (const MergePolicy policy :
       {MergePolicy::FirstNonNull, MergePolicy::UnionSets}) {
    for (const std::set<DbId>* excluded :
         {static_cast<const std::set<DbId>*>(nullptr), &exclude}) {
      AccessMeter oracle_meter, walk_meter;
      const oracle::RowView reference = oracle::materialize(
          fed, classes, &oracle_meter, policy, excluded);
      const QueryResult walked =
          oracle::evaluate_global(reference, fed.schema(), query, &walk_meter);
      for (const AttributeProjection* project :
           {static_cast<const AttributeProjection*>(nullptr), &involved}) {
        AccessMeter join_meter, eval_meter;
        const MaterializedView view = materialize(
            fed, classes, &join_meter, policy, excluded, project);
        EXPECT_EQ(join_meter, oracle_meter);
        expect_same_view(view, reference, classes, project);
        expect_same_result(
            evaluate_global(view, fed.schema(), query, &eval_meter), walked);
        EXPECT_EQ(eval_meter, walk_meter);
      }
    }
  }
}

TEST_P(ViewParity, ColumnKindsFollowTheValues) {
  // The column path is the one under test: numbers and bools are typed
  // columns and `q` a reference column whenever some database holds a value;
  // strings and reference sets are held cell by cell.
  const ParityFederation pf = make_view_federation(GetParam());
  const MaterializedView view = materialize(*pf.federation, {"P", "Q"});
  const MaterializedExtent& ps = view.extent("P");
  using ColKind = ColumnarExtent::ColKind;
  const std::pair<const char*, ColKind> expected[] = {
      {"n", ColKind::Num}, {"r", ColKind::Num}, {"s", ColKind::Other},
      {"b", ColKind::Bool}, {"q", ColKind::Ref}, {"qs", ColKind::Other}};
  for (const auto& [name, kind] : expected) {
    const auto attr = ps.cls().def().find_attribute(name);
    ASSERT_TRUE(attr.has_value()) << name;
    const ColKind got = ps.column(*attr).kind;
    EXPECT_TRUE(got == kind || got == ColKind::AllNull) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewParity,
                         ::testing::Range<std::uint64_t>(700, 760));

// ---- Table-2 synthetic federations --------------------------------------

class CachedEvalAgrees : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachedEvalAgrees, OnRandomFederations) {
  Rng rng(GetParam());
  ParamConfig config;
  config.n_objects = {20, 40};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const Federation& fed = *synth.federation;
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);
  const BoundQuery bound(fed, synth.query);

  for (const DbId db : fed.db_ids()) {
    const auto local = derive_local_query(fed.schema(), synth.query, db);
    ASSERT_TRUE(local.has_value());
    const ComponentDatabase& database = fed.db(db);
    const BoundQuery::Site site = bound.site(db);
    AccessMeter bound_meter, oracle_meter;
    FetchCache bound_cache, oracle_cache;
    for (const Object& obj : database.extent(local->root_class).objects()) {
      for (std::size_t p = 0; p < synth.query.predicates.size(); ++p)
        expect_same(bound.eval_predicate(site, p, obj, 0, &bound_meter,
                                         &bound_cache),
                    oracle::eval_global_predicate_at(
                        fed, db, obj, range, synth.query.predicates[p], 0,
                        &oracle_meter, &oracle_cache));
      for (std::size_t t = 0; t < synth.query.targets.size(); ++t)
        EXPECT_EQ(
            bound.eval_target(site, t, obj, &bound_meter, &bound_cache),
            oracle::eval_global_path(fed, db, obj, range,
                                     synth.query.targets[t], &oracle_meter,
                                     &oracle_cache));
    }
    // Byte-for-byte metering: every counter, not just comparisons.
    EXPECT_EQ(bound_meter, oracle_meter);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedEvalAgrees,
                         ::testing::Range<std::uint64_t>(500, 512));

/// A Table-2 sample with at least one predicate attribute schema-missing at
/// some database.
SynthFederation sample_with_missing_attribute(std::uint64_t seed) {
  for (Rng rng(seed);;) {
    ParamConfig config;
    config.n_objects = {10, 20};
    SynthFederation synth = materialize_sample(draw_sample(config, rng));
    for (const DbId db : synth.federation->db_ids()) {
      const auto local =
          derive_local_query(synth.federation->schema(), synth.query, db);
      if (local && !local->unsolved_predicates.empty()) return synth;
    }
  }
}

TEST(CachedEval, MissingAttributeIsCachedNegatively) {
  // A step bound as missing at a database answers Unknown at that step for
  // every object, charging what the walker charges; a path naming no global
  // attribute at all is no missing attribute but a malformed query.
  const SynthFederation synth = sample_with_missing_attribute(42);
  const Federation& fed = *synth.federation;
  const BoundQuery bound(fed, synth.query);
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);
  std::size_t negatives = 0;
  for (const DbId db : fed.db_ids()) {
    const auto local = derive_local_query(fed.schema(), synth.query, db);
    ASSERT_TRUE(local.has_value());
    const BoundQuery::Site site = bound.site(db);
    for (const UnsolvedPredicate& unsolved : local->unsolved_predicates) {
      const std::size_t p = unsolved.predicate_index;
      const std::size_t step = unsolved.item_prefix.length();
      EXPECT_FALSE(bound.local_attr(site, p, step).has_value());
      ++negatives;
      AccessMeter bound_meter, oracle_meter;
      for (const Object& obj :
           fed.db(db).extent(local->root_class).objects()) {
        const LocalPredOutcome outcome =
            bound.eval_predicate(site, p, obj, 0, &bound_meter);
        EXPECT_EQ(outcome.truth, Truth::Unknown);
        expect_same(outcome, oracle::eval_global_predicate_at(
                                 fed, db, obj, range, unsolved.original, 0,
                                 &oracle_meter));
      }
      EXPECT_EQ(bound_meter, oracle_meter);
    }
  }
  EXPECT_GT(negatives, 0u);

  GlobalQuery malformed = synth.query;
  malformed.where("no_such_attribute", CompOp::Eq, std::int64_t{1});
  EXPECT_THROW(BoundQuery(fed, malformed), QueryError);
}

TEST(CachedEval, CacheReuseAcrossRepeatedEvaluation) {
  // One binding serves any number of passes: a second full pass over the
  // extent (fresh buffer pool) repeats the first's outcomes and meter.
  Rng rng(7);
  ParamConfig config;
  config.n_objects = {10, 20};
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const Federation& fed = *synth.federation;
  const DbId db = fed.db_ids().front();
  const auto local = derive_local_query(fed.schema(), synth.query, db);
  ASSERT_TRUE(local.has_value());
  const BoundQuery bound(fed, synth.query);
  const BoundQuery::Site site = bound.site(db);

  std::vector<LocalPredOutcome> passes[2];
  AccessMeter meters[2];
  for (int pass = 0; pass < 2; ++pass) {
    FetchCache cache;
    for (const Object& obj : fed.db(db).extent(local->root_class).objects())
      for (std::size_t p = 0; p < synth.query.predicates.size(); ++p)
        passes[pass].push_back(
            bound.eval_predicate(site, p, obj, 0, &meters[pass], &cache));
  }
  ASSERT_EQ(passes[0].size(), passes[1].size());
  for (std::size_t i = 0; i < passes[0].size(); ++i)
    expect_same(passes[1][i], passes[0][i]);
  EXPECT_EQ(meters[0], meters[1]);
}

TEST(CachedEval, AddressReusePoisoning) {
  // Bindings are built per call and never memoized by address: a query that
  // dies and is replaced by a different one at the same address (trials
  // build their queries as temporaries) gets a binding of the new paths.
  Rng rng(7);
  ParamConfig config;
  config.n_objects = {10, 20};
  config.n_classes = {2, 4};
  config.n_preds = {1, 3};
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const Federation& fed = *synth.federation;
  const DbId db = fed.db_ids().front();
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);
  const Object& root =
      fed.db(db).extent(range.constituents()[*range.constituent_in(db)]
                            .local_class)
          .objects()
          .front();

  alignas(GlobalQuery) unsigned char storage[sizeof(GlobalQuery)];
  const auto construct = [&](std::size_t keep) {
    auto* query = new (storage) GlobalQuery;
    query->range_class = synth.query.range_class;
    query->predicates.push_back(synth.query.predicates[keep]);
    return query;
  };
  const auto check = [&](const GlobalQuery& query) {
    const BoundQuery bound(fed, query);
    AccessMeter bound_meter, oracle_meter;
    expect_same(
        bound.eval_predicate(bound.site(db), 0, root, 0, &bound_meter),
        oracle::eval_global_predicate_at(fed, db, root, range,
                                         query.predicates[0], 0,
                                         &oracle_meter));
    EXPECT_EQ(bound_meter, oracle_meter);
  };

  const std::size_t last = synth.query.predicates.size() - 1;
  GlobalQuery* query = construct(0);
  check(*query);
  query->~GlobalQuery();
  query = construct(last);
  check(*query);
  query->~GlobalQuery();
  query = construct(0);
  check(*query);
  query->~GlobalQuery();
}

}  // namespace
}  // namespace isomer
