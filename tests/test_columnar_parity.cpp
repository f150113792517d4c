// Parity of the one predicate evaluator (BoundQuery::evaluate: reaches and
// kernels over the columnar mirrors, the walk where they cannot follow).
//
//   * ColumnarParity: on randomized Table-2 workloads, every local
//     execution equals the oracle's row walk (tests/eval_oracle.hpp) field
//     for field, meters included; and every strategy, plain, batched and
//     fault-injected, gives the identical StrategyReport whether its mirror
//     columns are built lazily mid-execution or were built before, with the
//     answer of reference_answer (degraded_reference for the sites a
//     faulted run lost). A single diverging counter anywhere fails.
//   * NavigationParity: hand-made reference chains with every fallback —
//     reference sets, references into another class's extent, non-kernel
//     terminals, schema-missing steps — against the oracle's walk.
//
// The ASan recipe (docs/PERFORMANCE.md): configure with
// `cmake -DISOMER_SANITIZE=address` and run this binary — the kernels'
// arena arithmetic and selection vectors then execute under
// AddressSanitizer on every seed.
#include <gtest/gtest.h>

#include <set>

#include "eval_oracle.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/fault/degrade.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/schema/integrator.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

ParamConfig parity_config(std::size_t n_db) {
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {40, 80};  // scaled down; structure unchanged
  return config;
}

void expect_same_report(const StrategyReport& a, const StrategyReport& b,
                        StrategyKind kind, std::uint64_t seed,
                        const char* mode) {
  EXPECT_EQ(b.result, a.result)
      << to_string(kind) << " rows diverged (" << mode << ", seed " << seed
      << ")";
  EXPECT_EQ(b.response_ns, a.response_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(b.total_ns, a.total_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(b.cpu_ns, a.cpu_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(b.disk_ns, a.disk_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(b.net_ns, a.net_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(b.bytes_transferred, a.bytes_transferred)
      << to_string(kind) << " " << mode;
  EXPECT_EQ(b.messages, a.messages) << to_string(kind) << " " << mode;
  EXPECT_TRUE(b.work == a.work)
      << to_string(kind) << " meter diverged (" << mode << ", seed " << seed
      << ")";
  EXPECT_EQ(b.unavailable_sites, a.unavailable_sites)
      << to_string(kind) << " " << mode;
  EXPECT_EQ(b.retries, a.retries) << to_string(kind) << " " << mode;
  EXPECT_EQ(b.failed_messages, a.failed_messages)
      << to_string(kind) << " " << mode;
}

class ColumnarParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColumnarParity, StrategiesBitwiseIdenticalRowVsColumnar) {
  // The name predates the one evaluator, when this compared a row-walk
  // execution with a columnar one. Each strategy now runs twice on one
  // freshly built federation: first with no mirror column built, so the
  // evaluator builds them mid-execution, then with them built.
  Rng rng(GetParam());
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const SampleParams sample = draw_sample(parity_config(n_db), rng);

  // Three execution environments: plain, batched semijoin shipping, and
  // fault injection with graceful degradation.
  fault::FaultPlan plan;
  plan.drop_probability = 0.08;
  plan.spike_probability = 0.1;
  plan.seed = GetParam() * 7919 + 13;

  struct Mode {
    const char* name;
    bool batched;
    bool faulted;
  };
  const Mode modes[] = {{"plain", false, false},
                        {"batched", true, false},
                        {"faulted", false, true}};
  for (const Mode& mode : modes) {
    for (const StrategyKind kind : kPaperStrategies) {
      StrategyOptions options;
      options.batch.enabled = mode.batched;
      if (mode.faulted) {
        options.faults = &plan;
        options.retry.max_retries = 5;
        options.degrade = fault::DegradeMode::Partial;
      }
      const SynthFederation synth = materialize_sample(sample);
      const Federation& fed = *synth.federation;
      const StrategyReport cold =
          execute_strategy(kind, fed, synth.query, options);
      const StrategyReport warm =
          execute_strategy(kind, fed, synth.query, options);
      expect_same_report(cold, warm, kind, GetParam(), mode.name);
      const std::set<DbId> lost(cold.unavailable_sites.begin(),
                                cold.unavailable_sites.end());
      EXPECT_EQ(cold.result,
                mode.faulted ? fault::degraded_reference(fed, synth.query, lost)
                             : reference_answer(fed, synth.query))
          << to_string(kind) << " " << mode.name << " seed " << GetParam();
    }
  }
}

TEST_P(ColumnarParity, LocalExecutionsFieldIdentical) {
  // One level below the strategies: the LocalExecution a home database
  // ships — row list, per-row predicate statuses (including which entity
  // holds the missing data), targets, meter, candidate count — must match
  // the oracle's row walk field for field at every database.
  Rng rng(GetParam() + 100000);
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const SampleParams sample = draw_sample(parity_config(n_db), rng);
  const SynthFederation synth = materialize_sample(sample);
  const Federation& fed = *synth.federation;

  for (std::size_t i = 1; i <= n_db; ++i) {
    const DbId db{static_cast<std::uint16_t>(i)};
    EXPECT_EQ(oracle::exec_difference(run_local_query(fed, synth.query, db),
                                      oracle::run_local_query(fed, synth.query,
                                                              db)),
              "")
        << "at DB" << i;
  }
}

// 70 seeds x 3 strategies x 3 environments (plus the local-execution
// variant) comfortably clears the suite's 60-seed floor.
INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarParity,
                         ::testing::Range<std::uint64_t>(1, 71));

// ---- Navigation: hand-made reference chains --------------------------------
//
// Global classes A -> B -> C -> D through single references `b`, `c`, `d`;
// A also holds a reference set `bs` of B and a reference `w` declared to B
// whose values point into C's extent. DB1 defines everything. DB2 lacks
// B.y (schema-missing at a 2-step terminal), C.z (at a 3-step terminal)
// and C.d (mid-path for every 4-step predicate), and A.bs / A.w (at the
// root). References are null, dangling past the directory, or point into
// the other database (dangling too) at random; D.gap is never set, so its
// column is AllNull everywhere.

constexpr DbId kNavDb1{1};
constexpr DbId kNavDb2{2};

struct NavFixture {
  std::unique_ptr<Federation> federation;
  LOid dangling_root;  ///< DB1 A whose `b` is past the LOid directory
  LOid foreign_root;   ///< DB1 A whose `b` names a DB2 object
  LOid null_root;      ///< DB1 A whose `b` is null
};

ComponentSchema nav_schema(DbId db) {
  const bool full = db == kNavDb1;
  ComponentSchema schema(db, "DB" + std::to_string(db.value()));
  ClassDef& a = schema.add_class("A");
  a.add_attribute("id", PrimType::Int)
      .add_attribute("x", PrimType::Int)
      .add_attribute("b", ComplexType{"B"});
  if (full)
    a.add_attribute("bs", ComplexType{"B", true})
        .add_attribute("w", ComplexType{"B"});
  ClassDef& b = schema.add_class("B");
  b.add_attribute("id", PrimType::Int);
  if (full) b.add_attribute("y", PrimType::Int);
  b.add_attribute("c", ComplexType{"C"}).add_attribute("s", PrimType::String);
  ClassDef& c = schema.add_class("C");
  c.add_attribute("id", PrimType::Int);
  if (full)
    c.add_attribute("z", PrimType::Int).add_attribute("d", ComplexType{"D"});
  c.add_attribute("flag", PrimType::Bool);
  schema.add_class("D")
      .add_attribute("id", PrimType::Int)
      .add_attribute("v", PrimType::Int)
      .add_attribute("gap", PrimType::Real);
  return schema;
}

NavFixture make_nav_federation(std::uint64_t seed) {
  Rng rng(seed);
  NavFixture out;
  std::vector<std::unique_ptr<ComponentDatabase>> databases;
  databases.push_back(std::make_unique<ComponentDatabase>(nav_schema(kNavDb1)));
  databases.push_back(std::make_unique<ComponentDatabase>(nav_schema(kNavDb2)));
  // A class's objects are inserted before its referrers; 1 in 8 values is
  // left null, and a reference goes astray 1 time in 10.
  const auto maybe = [&](Value v) {
    return rng.bernoulli(0.125) ? Value::null() : std::move(v);
  };
  const auto ref_to = [&](DbId db, const std::vector<LOid>& targets) {
    if (rng.bernoulli(0.1))
      return Value(LocalRef{rng.bernoulli(0.5)
                                ? LOid{db, 100000}
                                : LOid{db == kNavDb1 ? kNavDb2 : kNavDb1, 1}});
    return maybe(Value(LocalRef{targets[rng.index(targets.size())]}));
  };
  GoidTable goids;
  std::int64_t serial = 0;
  for (auto& database : databases) {
    const DbId db = database->db();
    const bool full = db == kNavDb1;
    std::vector<LOid> ds, cs, bs;
    const auto add = [&](const char* cls, std::vector<NamedValue> values) {
      values.emplace_back("id", Value(++serial));
      const LOid id = database->insert(cls, values);
      goids.register_entity(cls, {id});
      return id;
    };
    for (int i = 0; i < 24; ++i)
      ds.push_back(add("D", {{"v", maybe(Value(rng.uniform_int(0, 4)))}}));
    for (int i = 0; i < 30; ++i) {
      std::vector<NamedValue> values{{"flag", maybe(Value(rng.bernoulli(0.5)))}};
      if (full) {
        values.emplace_back("z", maybe(Value(rng.uniform_int(0, 4))));
        values.emplace_back("d", ref_to(db, ds));
      }
      cs.push_back(add("C", values));
    }
    for (int i = 0; i < 30; ++i) {
      std::vector<NamedValue> values{
          {"c", ref_to(db, cs)},
          {"s", maybe(Value(rng.bernoulli(0.5) ? "j" : "k"))}};
      if (full) values.emplace_back("y", maybe(Value(rng.uniform_int(0, 4))));
      bs.push_back(add("B", values));
    }
    for (int i = 0; i < 160; ++i) {
      std::vector<NamedValue> values{{"x", maybe(Value(rng.uniform_int(0, 9)))},
                                     {"b", ref_to(db, bs)}};
      if (full) {
        LocalRefSet set;
        for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k)
          set.targets.push_back(bs[rng.index(bs.size())]);
        values.emplace_back("bs", maybe(Value(std::move(set))));
        // `w` is declared to B but names a C object half of the time.
        values.emplace_back(
            "w", Value(LocalRef{rng.bernoulli(0.5) ? cs[rng.index(cs.size())]
                                                   : bs[rng.index(bs.size())]}));
      }
      add("A", values);
    }
    if (full) {
      out.dangling_root = add("A", {{"x", Value(1)},
                                    {"b", Value(LocalRef{LOid{db, 100000}})}});
      out.foreign_root =
          add("A", {{"x", Value(1)}, {"b", Value(LocalRef{LOid{kNavDb2, 1}})}});
      out.null_root = add("A", {{"x", Value(1)}});
    }
  }
  IntegrationSpec spec;
  for (const char* cls : {"A", "B", "C", "D"}) {
    ClassSpec& cls_spec = spec.add_class(cls);
    cls_spec.constituents = {{kNavDb1, cls}, {kNavDb2, cls}};
    cls_spec.identity_attribute = "id";
  }
  GlobalSchema schema =
      integrate({&databases[0]->schema(), &databases[1]->schema()}, spec);
  out.federation = std::make_unique<Federation>(
      std::move(schema), std::move(databases), std::move(goids));
  return out;
}

/// Predicates sharing prefixes of length 0 to 3, with kernel, AllNull,
/// null-literal and non-kernel terminals, a reference-set step and a
/// reference into another class's extent.
std::vector<Predicate> nav_predicates(const NavFixture& fx) {
  GlobalQuery q;
  q.where("x", CompOp::Gt, Value(4))
      .where("b.y", CompOp::Eq, Value(2))
      .where("b.s", CompOp::Eq, Value("k"))
      .where("b.c.z", CompOp::Lt, Value(3))
      .where("b.c.flag", CompOp::Eq, Value(true))
      .where("b.c.d.v", CompOp::Ge, Value(2))
      .where("b.c.d.gap", CompOp::Eq, Value(1.0))
      .where("b.c.d.v", CompOp::Eq, Value::null())
      .where("b.c", CompOp::Eq,
             Value(LocalRef{fx.federation->db(kNavDb1)
                                .extent("C")
                                .objects()
                                .front()
                                .id()}))
      .where("bs.y", CompOp::Eq, Value(1))
      .where("w.y", CompOp::Eq, Value(3))
      .where("bs.c.d.v", CompOp::Le, Value(1))
      .where("w.c.z", CompOp::Lt, Value(2));
  return q.predicates;
}

void expect_nav_parity(const Federation& fed, const GlobalQuery& query,
                       const std::string& name) {
  for (const DbId db : fed.db_ids())
    EXPECT_EQ(oracle::exec_difference(run_local_query(fed, query, db),
                                      oracle::run_local_query(fed, query, db)),
              "")
        << name << " at DB" << db.value();
}

class NavigationParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NavigationParity, EachPredicateAloneMatchesTheRowWalk) {
  const NavFixture fx = make_nav_federation(GetParam());
  const std::vector<Predicate> preds = nav_predicates(fx);
  for (std::size_t p = 0; p < preds.size(); ++p) {
    GlobalQuery query;
    query.range_class = "A";
    query.select("x").select("b.c.d.v");
    query.predicates = {preds[p]};
    expect_nav_parity(*fx.federation, query, "predicate " + std::to_string(p));
  }
}

TEST_P(NavigationParity, SharedPrefixesInOneQueryMatchTheRowWalk) {
  const NavFixture fx = make_nav_federation(GetParam());
  GlobalQuery query;
  query.range_class = "A";
  query.select("b.s").select("w.c");
  query.predicates = nav_predicates(fx);
  // Every predicate together as one OR: few candidates are eliminated, so
  // the rows carry every predicate's status.
  query.disjuncts.resize(1);
  for (std::size_t p = 0; p < query.predicates.size(); ++p)
    query.disjuncts[0].push_back(p);
  expect_nav_parity(*fx.federation, query, "disjunction");
  // And as a conjunction: most candidates fall, the meters still match.
  query.disjuncts.clear();
  expect_nav_parity(*fx.federation, query, "conjunction");
  // Prefix reaches built in an order where a longer prefix comes first.
  GlobalQuery chain;
  chain.range_class = "A";
  chain.where("b.c.d.v", CompOp::Lt, Value(4))
      .where("b.c.z", CompOp::Ne, Value(0))
      .where("b.y", CompOp::Ge, Value(1));
  expect_nav_parity(*fx.federation, chain, "chain");
}

TEST_P(NavigationParity, NonReferenceStepThrowsOnBothPaths) {
  // A comparison no kernel takes: the walk throws on the first non-null
  // value, and the evaluator must leave it to the walk.
  const NavFixture fx = make_nav_federation(GetParam());
  GlobalQuery query;
  query.range_class = "A";
  query.where("b.y", CompOp::Eq, Value("q"));  // Int vs String
  EXPECT_THROW((void)oracle::run_local_query(*fx.federation, query, kNavDb1),
               QueryError);
  EXPECT_THROW((void)run_local_query(*fx.federation, query, kNavDb1),
               QueryError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NavigationParity,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(NavigationStops, HeldByTheReferrerAtItsStep) {
  // A dangling, a foreign and a null reference all stop the walk at step 0:
  // the root holds the gap, so the status is root-level.
  const NavFixture fx = make_nav_federation(7);
  GlobalQuery query;
  query.range_class = "A";
  query.where("b.c.d.v", CompOp::Eq, Value(1));
  const LocalExecution col =
      run_local_query(*fx.federation, query, kNavDb1);
  std::size_t seen = 0;
  for (const LocalRow& row : col.rows) {
    if (row.root != fx.dangling_root && row.root != fx.foreign_root &&
        row.root != fx.null_root)
      continue;
    ++seen;
    const PredStatus& status = row.preds[0];
    EXPECT_EQ(status.truth, Truth::Unknown);
    EXPECT_EQ(status.item, row.entity);
    EXPECT_EQ(status.step, 0u);
    EXPECT_TRUE(status.root_level);
  }
  EXPECT_EQ(seen, 3u);
  // At DB2, C.d is schema-missing: a live walk stops at step 2 on the C
  // object, which is not the root.
  const LocalExecution db2 =
      run_local_query(*fx.federation, query, kNavDb2);
  std::size_t mid_path = 0;
  for (const LocalRow& row : db2.rows)
    if (row.preds[0].step == 2) {
      ++mid_path;
      EXPECT_FALSE(row.preds[0].root_level);
      EXPECT_NE(row.preds[0].item, row.entity);
    }
  EXPECT_GT(mid_path, 0u);
}

}  // namespace
}  // namespace isomer
