// explain(): narrated accounts of why an entity is certain/maybe/eliminated.
#include <gtest/gtest.h>

#include <algorithm>

#include "isomer/core/explain.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

class ExplainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = paper::make_university();
    query_ = paper::q1();
  }
  const Federation& fed() { return *example_.federation; }
  GOid g(LOid id) { return example_.entity(id); }
  paper::UniversityExample example_;
  GlobalQuery query_;
};

TEST_F(ExplainFixture, MalformedPathsAreQueryErrors) {
  // A path naming no global attribute used to be narrated as a null value;
  // binding rejects it, and a path continuing past a primitive, up front.
  for (const char* path : {"no_such_attr", "name.more"}) {
    GlobalQuery bad = query_;
    bad.where(path, CompOp::Eq, "x");
    EXPECT_THROW((void)explain(fed(), bad, g(example_.ids.s1p)), QueryError)
        << path;
  }
}

TEST_F(ExplainFixture, HedyIsCertainThroughAnAssistant) {
  const Explanation e = explain(fed(), query_, g(example_.ids.s1p));
  EXPECT_EQ(e.outcome, Outcome::Certain);
  ASSERT_EQ(e.predicates.size(), 3u);
  EXPECT_EQ(e.predicates[0].merged, Truth::True);   // address.city
  EXPECT_EQ(e.predicates[1].merged, Truth::True);   // advisor.speciality
  EXPECT_EQ(e.predicates[2].merged, Truth::True);   // advisor.department.name
  // The department predicate was settled by a checked assistant (t2''@DB3).
  bool assistant_settled = false;
  for (const Evidence& evidence : e.predicates[2].evidence)
    if (evidence.from_assistant && is_true(evidence.truth))
      assistant_settled = true;
  EXPECT_TRUE(assistant_settled);
}

TEST_F(ExplainFixture, TonyIsMaybeWithNamedMissingData) {
  const Explanation e = explain(fed(), query_, g(example_.ids.s2));
  EXPECT_EQ(e.outcome, Outcome::Maybe);
  EXPECT_EQ(e.predicates[0].merged, Truth::Unknown);
  EXPECT_EQ(e.predicates[1].merged, Truth::Unknown);
  EXPECT_EQ(e.predicates[2].merged, Truth::True);
  // The narration names the missing attribute and its holder.
  const std::string text = e.to_text(query_);
  EXPECT_NE(text.find("address"), std::string::npos) << text;
  EXPECT_NE(text.find("missing attribute"), std::string::npos) << text;
}

TEST_F(ExplainFixture, ResidualHistogramNamesTonysUnresolvedAtoms) {
  // A Maybe row carries a residual condition; its histogram is the
  // per-entity view of CertifyStats::unresolved_by_predicate. Tony stalls on
  // address.city (p0) and salary (p1) while the advisor predicate (p2) is
  // settled, so exactly p0 and p1 must appear — and the residual text must
  // reach the narration.
  const Explanation e = explain(fed(), query_, g(example_.ids.s2));
  ASSERT_EQ(e.outcome, Outcome::Maybe);
  const std::map<std::size_t, std::uint64_t> histogram = e.residual_histogram();
  ASSERT_EQ(histogram.size(), 2u);
  ASSERT_TRUE(histogram.count(0));
  ASSERT_TRUE(histogram.count(1));
  EXPECT_GE(histogram.at(0), 1u);
  EXPECT_GE(histogram.at(1), 1u);
  EXPECT_FALSE(histogram.count(2)) << "p2 is settled, nothing residual";
  EXPECT_TRUE(is_unknown(e.residual.truth()));
  const std::string text = e.to_text(query_);
  EXPECT_NE(text.find("residual:"), std::string::npos) << text;
  EXPECT_NE(text.find("unresolved atoms:"), std::string::npos) << text;
  EXPECT_NE(text.find("p0="), std::string::npos) << text;
  EXPECT_NE(text.find("p1="), std::string::npos) << text;
}

TEST_F(ExplainFixture, ResidualIsConstantTrueForDecidedOutcomes) {
  // Certain, eliminated and not-found entities have nothing residual: the
  // condition defaults to the constant True and the histogram stays empty.
  for (const GOid entity : {g(example_.ids.s1p),   // Hedy: certain
                            g(example_.ids.s1),    // John: eliminated
                            g(example_.ids.s3),    // Mary: eliminated
                            GOid{99999}}) {        // not found
    const Explanation e = explain(fed(), query_, entity);
    ASSERT_NE(e.outcome, Outcome::Maybe) << "g" << entity.value();
    EXPECT_TRUE(e.residual_histogram().empty()) << "g" << entity.value();
    EXPECT_TRUE(e.residual.is_constant()) << "g" << entity.value();
    EXPECT_TRUE(is_true(e.residual.truth())) << "g" << entity.value();
  }
}

TEST_F(ExplainFixture, JohnIsEliminatedByHisDb2Isomer) {
  const Explanation e = explain(fed(), query_, g(example_.ids.s1));
  EXPECT_EQ(e.outcome, Outcome::Eliminated);
  ASSERT_TRUE(e.eliminated_at.has_value());
  EXPECT_EQ(*e.eliminated_at, DbId{2}) << "s2' fails address.city at DB2";
}

TEST_F(ExplainFixture, MaryIsEliminatedByAViolatingAssistant) {
  const Explanation e = explain(fed(), query_, g(example_.ids.s3));
  EXPECT_EQ(e.outcome, Outcome::Eliminated);
  EXPECT_EQ(e.predicates[2].merged, Truth::False)
      << "t1''@DB3's department is EE, not CS";
}

TEST_F(ExplainFixture, UnknownEntitiesAreNotFound) {
  EXPECT_EQ(explain(fed(), query_, GOid{0}).outcome, Outcome::NotFound);
  EXPECT_EQ(explain(fed(), query_, GOid{99999}).outcome, Outcome::NotFound);
  // A teacher is not an entity of the range class Student.
  EXPECT_EQ(explain(fed(), query_, g(example_.ids.t1)).outcome,
            Outcome::NotFound);
}

TEST_F(ExplainFixture, TextRendering) {
  const std::string text =
      explain(fed(), query_, g(example_.ids.s1p)).to_text(query_);
  EXPECT_NE(text.find("certain"), std::string::npos);
  EXPECT_NE(text.find("X.address.city=Taipei"), std::string::npos);
  EXPECT_NE(text.find("[check]"), std::string::npos);
}

// Property: explain()'s outcome always matches the strategies' answer.
class ExplainMatchesStrategies : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExplainMatchesStrategies, OnRandomWorkloads) {
  Rng rng(GetParam());
  ParamConfig config;
  config.n_objects = {25, 45};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const QueryResult result =
      reference_answer(*synth.federation, synth.query);
  const GoidTable& goids = synth.federation->goids();
  for (const GOid entity : goids.entities_of(synth.query.range_class)) {
    const Explanation e = explain(*synth.federation, synth.query, entity);
    const ResultRow* row = result.find(entity);
    if (row == nullptr) {
      EXPECT_EQ(e.outcome, Outcome::Eliminated)
          << "g" << entity.value() << " seed " << GetParam();
    } else if (row->status == ResultStatus::Certain) {
      EXPECT_EQ(e.outcome, Outcome::Certain)
          << "g" << entity.value() << " seed " << GetParam();
    } else {
      EXPECT_EQ(e.outcome, Outcome::Maybe)
          << "g" << entity.value() << " seed " << GetParam();
      // A maybe entity's residual is still undecided, and its atoms name
      // local gaps of predicates the pooled evidence did not refute. A
      // True-merged predicate can keep a leaf (pool(true, x) turns False
      // with x), so the atoms are not all on Unknown predicates. The
      // histogram counts exactly the residual's atoms; it is empty when
      // the residual folded to Unknown constants (an assistant answered
      // Unknown), so it is not asserted non-empty.
      EXPECT_TRUE(is_unknown(e.residual.truth()))
          << "g" << entity.value() << " seed " << GetParam();
      const std::vector<CondAtom> atoms = e.residual.atoms();
      for (const CondAtom& atom : atoms) {
        const PredicateAccount& account = e.predicates[atom.predicate];
        EXPECT_NE(account.merged, Truth::False)
            << "g" << entity.value() << " seed " << GetParam() << " "
            << e.residual.to_string();
        EXPECT_TRUE(std::any_of(account.evidence.begin(),
                                account.evidence.end(),
                                [](const Evidence& evidence) {
                                  return !evidence.from_assistant &&
                                         is_unknown(evidence.truth);
                                }))
            << "g" << entity.value() << " seed " << GetParam()
            << ": a residual atom names no local gap";
      }
      std::uint64_t counted = 0;
      for (const auto& [predicate, count] : e.residual_histogram())
        counted += count;
      EXPECT_EQ(counted, atoms.size())
          << "g" << entity.value() << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplainMatchesStrategies,
                         ::testing::Range<std::uint64_t>(800, 812));

}  // namespace
}  // namespace isomer
