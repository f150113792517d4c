// Extent indexes: identical answers, preserved maybe semantics (the null
// bucket), and reduced disk work for the localized strategies.
#include <gtest/gtest.h>

#include "isomer/core/strategy.hpp"
#include "isomer/federation/indexes.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

SynthFederation eq_workload(std::uint64_t seed, int objects = 200) {
  Rng rng(seed);
  ParamConfig config;
  config.n_objects = {objects, objects + 50};
  config.n_preds = {1, 3};  // ensure at least one equality predicate
  return materialize_sample(draw_sample(config, rng));
}

/// The generated root-class predicates are `p_j = 0`, single-step equality —
/// index-eligible whenever the root class carries one.
bool has_root_eq_pred(const GlobalQuery& query) {
  for (const Predicate& pred : query.predicates)
    if (pred.path.length() == 1 && pred.op == CompOp::Eq) return true;
  return false;
}

TEST(Indexes, BuildCoversRootEqualityPredicates) {
  const SynthFederation synth = eq_workload(11);
  const ExtentIndexes indexes =
      ExtentIndexes::build(*synth.federation, synth.query);
  if (has_root_eq_pred(synth.query)) EXPECT_GT(indexes.index_count(), 0u);
}

TEST(Indexes, LookupSeparatesMatchesFromNullBucket) {
  const SynthFederation synth = eq_workload(12);
  if (!has_root_eq_pred(synth.query)) GTEST_SKIP();
  const ExtentIndexes indexes =
      ExtentIndexes::build(*synth.federation, synth.query);
  const Predicate* eq = nullptr;
  for (const Predicate& pred : synth.query.predicates)
    if (pred.path.length() == 1 && pred.op == CompOp::Eq) eq = &pred;
  ASSERT_NE(eq, nullptr);

  for (const DbId db : synth.federation->db_ids()) {
    const auto lookup =
        indexes.lookup(db, eq->path.step(0), eq->literal);
    if (!lookup) continue;  // attribute missing at this database
    const ComponentDatabase& database = synth.federation->db(db);
    const std::string& cls = database.class_of((*lookup->matches).empty()
                                                   ? (*lookup->unknowns)[0]
                                                   : (*lookup->matches)[0]);
    const auto attr =
        database.schema().cls(cls).find_attribute(eq->path.step(0));
    ASSERT_TRUE(attr.has_value());
    for (const LOid id : *lookup->matches)
      EXPECT_EQ(database.fetch(id)->value(*attr), eq->literal);
    for (const LOid id : *lookup->unknowns)
      EXPECT_TRUE(database.fetch(id)->value(*attr).is_null());
  }
}

TEST(Indexes, MissLiteralGivesNullBucketOnly) {
  const SynthFederation synth = eq_workload(13);
  if (!has_root_eq_pred(synth.query)) GTEST_SKIP();
  const ExtentIndexes indexes =
      ExtentIndexes::build(*synth.federation, synth.query);
  const Predicate* eq = nullptr;
  for (const Predicate& pred : synth.query.predicates)
    if (pred.path.length() == 1 && pred.op == CompOp::Eq) eq = &pred;
  for (const DbId db : synth.federation->db_ids()) {
    const auto lookup =
        indexes.lookup(db, eq->path.step(0), Value(123456789));
    if (!lookup) continue;
    EXPECT_TRUE(lookup->matches->empty());
  }
}

TEST(Indexes, TwoPredicatesOnOneAttributeListEachObjectOnce) {
  const SynthFederation synth = eq_workload(14);
  if (!has_root_eq_pred(synth.query)) GTEST_SKIP();
  GlobalQuery query = synth.query;
  const Predicate* eq = nullptr;
  for (const Predicate& pred : synth.query.predicates)
    if (pred.path.length() == 1 && pred.op == CompOp::Eq) eq = &pred;
  query.where(eq->path.step(0), CompOp::Eq, Value(123456789));
  const ExtentIndexes once = ExtentIndexes::build(*synth.federation,
                                                  synth.query);
  const ExtentIndexes twice = ExtentIndexes::build(*synth.federation, query);
  for (const DbId db : synth.federation->db_ids()) {
    const auto a = once.lookup(db, eq->path.step(0), eq->literal);
    const auto b = twice.lookup(db, eq->path.step(0), eq->literal);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    EXPECT_EQ(*a->matches, *b->matches);
    EXPECT_EQ(*a->unknowns, *b->unknowns);
  }
}

class IndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexEquivalence, SameAnswersLessDisk) {
  const SynthFederation synth = eq_workload(GetParam(), 150);
  const ExtentIndexes indexes =
      ExtentIndexes::build(*synth.federation, synth.query);

  StrategyOptions plain, indexed;
  indexed.indexes = &indexes;

  for (const StrategyKind kind : {StrategyKind::BL, StrategyKind::PL}) {
    const StrategyReport without =
        execute_strategy(kind, *synth.federation, synth.query, plain);
    const StrategyReport with =
        execute_strategy(kind, *synth.federation, synth.query, indexed);
    EXPECT_EQ(with.result, without.result)
        << to_string(kind) << " seed " << GetParam();
    if (kind == StrategyKind::BL && has_root_eq_pred(synth.query) &&
        indexes.index_count() > 0)
      EXPECT_LE(with.disk_ns, without.disk_ns)
          << "index candidates never cost more disk than a scan";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalence,
                         ::testing::Range<std::uint64_t>(900, 912));

TEST(Indexes, DisjunctiveQueriesFallBackToScans) {
  SynthFederation synth = eq_workload(14);
  if (synth.query.predicates.size() < 2) GTEST_SKIP();
  synth.query.disjuncts = {{0}, {1}};
  const ExtentIndexes indexes =
      ExtentIndexes::build(*synth.federation, synth.query);
  StrategyOptions plain, indexed;
  indexed.indexes = &indexes;
  const auto without = execute_strategy(StrategyKind::BL, *synth.federation,
                                        synth.query, plain);
  const auto with = execute_strategy(StrategyKind::BL, *synth.federation,
                                     synth.query, indexed);
  EXPECT_EQ(with.result, without.result);
  EXPECT_EQ(with.disk_ns, without.disk_ns)
      << "an index must not prune objects that another alternative may save";
}

}  // namespace
}  // namespace isomer
