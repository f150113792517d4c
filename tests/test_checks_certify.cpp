// Local execution rows, assistant planning/checking (with cascades), and
// the certification rule, exercised on the paper's running example where
// every intermediate artifact is known in closed form (§2.3, Fig. 7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/certify.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"
#include "report_digest.hpp"

#ifndef ISOMER_CONDITION_GOLDEN_FILE
#define ISOMER_CONDITION_GOLDEN_FILE "condition_reports.golden"
#endif

namespace isomer {
namespace {

class CertifyFixture : public ::testing::Test {
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

TEST_F(CertifyFixture, LocalRowsAtDb1MatchFigure7a) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  ASSERT_EQ(exec.rows.size(), 3u) << "s1, s2, s3 all survive locally";

  // Predicate indices: 0 address.city, 1 advisor.speciality,
  // 2 advisor.department.name.
  const LocalRow* john = nullptr;
  for (const LocalRow& row : exec.rows)
    if (row.root == example_.ids.s1) john = &row;
  ASSERT_NE(john, nullptr);
  EXPECT_EQ(john->preds[0].truth, Truth::Unknown);
  EXPECT_TRUE(john->preds[0].root_level) << "address missing on the student";
  EXPECT_EQ(john->preds[1].truth, Truth::Unknown);
  EXPECT_EQ(john->preds[1].item, g(example_.ids.t1))
      << "the unsolved item is teacher t1 (speciality missing)";
  EXPECT_EQ(john->preds[1].step, 1u);
  EXPECT_EQ(john->preds[2].truth, Truth::True);

  const LocalRow* mary = nullptr;
  for (const LocalRow& row : exec.rows)
    if (row.root == example_.ids.s3) mary = &row;
  ASSERT_NE(mary, nullptr);
  EXPECT_EQ(mary->preds[2].truth, Truth::Unknown)
      << "t2.department is null, so even the local predicate is unsolved";
  EXPECT_EQ(mary->preds[2].item, g(example_.ids.t2));
}

TEST_F(CertifyFixture, LocalRowsAtDb2MatchFigure7b) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{2});
  // s2' fails address.city (HsinChu); s3' fails speciality (network).
  ASSERT_EQ(exec.rows.size(), 1u);
  EXPECT_EQ(exec.rows[0].root, example_.ids.s1p);
  EXPECT_EQ(exec.rows[0].preds[0].truth, Truth::True);
  EXPECT_EQ(exec.rows[0].preds[1].truth, Truth::True);
  EXPECT_EQ(exec.rows[0].preds[2].truth, Truth::Unknown);
  EXPECT_EQ(exec.rows[0].preds[2].item, g(example_.ids.t1p));
}

TEST_F(CertifyFixture, UnsolvedItemsExcludeRootLevelSites) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  const auto items = unsolved_items_of_rows(exec.rows);
  for (const UnsolvedItem& item : items) EXPECT_GT(item.step, 0u);
  // Items: (t1,p1), (t3,p1), (t2,p1), (t2,p2) — per row, so 4 instances.
  EXPECT_EQ(items.size(), 4u);
}

TEST_F(CertifyFixture, PlanChecksSelectsCapableAssistants) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  const CheckPlan plan = plan_checks(fed(), query_, DbId{1},
                                     unsolved_items_of_rows(exec.rows));
  // t1's assistant t2' lives in DB2 (speciality); t2's assistant t1'' in
  // DB3 (department.name). t3 and t2-for-speciality have no capable
  // assistant (paper: "no assistant object can provide the data of
  // attribute speciality for object t2").
  ASSERT_EQ(plan.task_count(), 2u);
  ASSERT_TRUE(plan.by_target.count(DbId{2}));
  EXPECT_EQ(plan.by_target.at(DbId{2})[0].assistant, example_.ids.t2p);
  EXPECT_EQ(plan.by_target.at(DbId{2})[0].predicate, 1u);
  ASSERT_TRUE(plan.by_target.count(DbId{3}));
  EXPECT_EQ(plan.by_target.at(DbId{3})[0].assistant, example_.ids.t1pp);
  EXPECT_EQ(plan.by_target.at(DbId{3})[0].predicate, 2u);
  EXPECT_GT(plan.meter.table_probes, 0u);
}

TEST_F(CertifyFixture, RunChecksProducesPaperVerdicts) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  const CheckPlan plan = plan_checks(fed(), query_, DbId{1},
                                     unsolved_items_of_rows(exec.rows));
  // DB2: t2' speciality=network, predicate wants database -> False.
  const CheckOutcome at2 =
      run_checks(fed(), query_, DbId{2}, plan.by_target.at(DbId{2}));
  ASSERT_EQ(at2.verdicts.size(), 1u);
  EXPECT_EQ(at2.verdicts[0].item, g(example_.ids.t1));
  EXPECT_EQ(at2.verdicts[0].truth, Truth::False);
  // DB3: t1'' department d1'' is EE, predicate wants CS -> False.
  const CheckOutcome at3 =
      run_checks(fed(), query_, DbId{3}, plan.by_target.at(DbId{3}));
  ASSERT_EQ(at3.verdicts.size(), 1u);
  EXPECT_EQ(at3.verdicts[0].truth, Truth::False);
  EXPECT_EQ(at3.follow_up.task_count(), 0u);
}

TEST_F(CertifyFixture, CertifyReproducesThePaperAnswer) {
  std::vector<LocalExecution> locals;
  locals.push_back(run_local_query(fed(), query_, DbId{1}));
  locals.push_back(run_local_query(fed(), query_, DbId{2}));

  std::vector<CheckVerdict> verdicts;
  for (const LocalExecution& local : locals) {
    const CheckPlan plan = plan_checks(fed(), query_, local.db,
                                       unsolved_items_of_rows(local.rows));
    for (const auto& [target, tasks] : plan.by_target) {
      const CheckOutcome outcome = run_checks(fed(), query_, target, tasks);
      verdicts.insert(verdicts.end(), outcome.verdicts.begin(),
                      outcome.verdicts.end());
    }
  }

  const QueryResult result = certify(fed(), query_, locals, verdicts);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.find(g(example_.ids.s1p))->status, ResultStatus::Certain);
  EXPECT_EQ(result.find(g(example_.ids.s2))->status, ResultStatus::Maybe);
  // John (gs1): his DB2 isomer s2' was eliminated locally, so the row from
  // DB2 is absent and the certification rule eliminates the entity.
  EXPECT_EQ(result.find(g(example_.ids.s1)), nullptr);
  // Mary (gs3): the assistant t1'' violates department.name=CS.
  EXPECT_EQ(result.find(g(example_.ids.s3)), nullptr);
}

TEST_F(CertifyFixture, WithoutVerdictsEverythingUnresolvedStaysMaybe) {
  std::vector<LocalExecution> locals;
  locals.push_back(run_local_query(fed(), query_, DbId{1}));
  locals.push_back(run_local_query(fed(), query_, DbId{2}));
  const QueryResult result = certify(fed(), query_, locals, {});
  // Hedy's item verdict is missing: she degrades to a maybe result. Tony
  // stays maybe. Mary is NOT eliminated anymore (no violating verdict).
  EXPECT_EQ(result.find(g(example_.ids.s1p))->status, ResultStatus::Maybe);
  EXPECT_NE(result.find(g(example_.ids.s3)), nullptr);
  EXPECT_EQ(result.find(g(example_.ids.s1)), nullptr)
      << "row-presence elimination needs no verdicts";
}

TEST_F(CertifyFixture, TrueVerdictSolvesAndFalseEliminates) {
  std::vector<LocalExecution> locals;
  locals.push_back(run_local_query(fed(), query_, DbId{2}));
  // Only DB2's local result: Hedy with advisor.department unsolved on gt4.
  {
    const QueryResult result =
        certify(fed(), query_, locals,
                {CheckVerdict{g(example_.ids.t1p), 2, Truth::True}});
    EXPECT_EQ(result.find(g(example_.ids.s1p))->status,
              ResultStatus::Certain);
  }
  {
    const QueryResult result =
        certify(fed(), query_, locals,
                {CheckVerdict{g(example_.ids.t1p), 2, Truth::False}});
    EXPECT_EQ(result.find(g(example_.ids.s1p)), nullptr);
  }
  {
    const QueryResult result =
        certify(fed(), query_, locals,
                {CheckVerdict{g(example_.ids.t1p), 2, Truth::Unknown}});
    EXPECT_EQ(result.find(g(example_.ids.s1p))->status, ResultStatus::Maybe);
  }
}

TEST_F(CertifyFixture, VerdictsNeverDecideRootLevelSites) {
  // John's address is missing on the student himself (step 0). Such a site
  // is decided only by the other rows of its pool, so even a verdict keyed
  // on exactly (John, p0) must leave his residual leaf alone.
  std::vector<LocalExecution> locals;
  locals.push_back(run_local_query(fed(), query_, DbId{1}));
  const GOid john = g(example_.ids.s1);
  const QueryResult without = certify(fed(), query_, locals, {});
  const QueryResult with =
      certify(fed(), query_, locals, {CheckVerdict{john, 0, Truth::True}});
  ASSERT_NE(with.find(john), nullptr);
  EXPECT_EQ(with, without);
  EXPECT_EQ(with.find(john)->condition, without.find(john)->condition);
  const std::vector<CondAtom> atoms = with.find(john)->condition.atoms();
  EXPECT_NE(std::find(atoms.begin(), atoms.end(), CondAtom{john, 0, 0, true}),
            atoms.end())
      << with.find(john)->condition.to_string();
}

TEST_F(CertifyFixture, ConflictingVerdictsFalseDominates) {
  std::vector<LocalExecution> locals;
  locals.push_back(run_local_query(fed(), query_, DbId{2}));
  const QueryResult result =
      certify(fed(), query_, locals,
              {CheckVerdict{g(example_.ids.t1p), 2, Truth::True},
               CheckVerdict{g(example_.ids.t1p), 2, Truth::False}});
  EXPECT_EQ(result.find(g(example_.ids.s1p)), nullptr)
      << "any violating assistant eliminates (certification rule)";
}

TEST_F(CertifyFixture, TargetsMergeAcrossRowsInDbOrder) {
  std::vector<LocalExecution> locals;
  locals.push_back(run_local_query(fed(), query_, DbId{1}));
  locals.push_back(run_local_query(fed(), query_, DbId{2}));
  const QueryResult result = certify(fed(), query_, locals, {});
  const ResultRow* tony = result.find(g(example_.ids.s2));
  ASSERT_NE(tony, nullptr);
  EXPECT_EQ(tony->targets[0], Value("Tony"));
  EXPECT_EQ(tony->targets[1], Value("Haley"));
}

TEST_F(CertifyFixture, SuffixEvaluationStartsMidPath) {
  // Directly exercise the bound evaluator from step 1: check
  // "department.name = CS" (predicate 2, advisor.department.name) on
  // Kelly's DB3 object (t2'' -> d2'' CS).
  const Object* kelly = fed().db(DbId{3}).fetch(example_.ids.t2pp);
  ASSERT_NE(kelly, nullptr);
  const BoundQuery bound(fed(), query_);
  EXPECT_EQ(&bound.step_class(2, 1), &fed().schema().cls("Teacher"));
  const LocalPredOutcome outcome =
      bound.eval_predicate(bound.site(DbId{3}), 2, *kelly, 1);
  EXPECT_EQ(outcome.truth, Truth::True);
}

TEST_F(CertifyFixture, CheckEntryPointsRejectMalformedPaths) {
  // Binding validates every path, so a malformed one is a QueryError at
  // each entry point — even when there is nothing to walk — never a
  // contract violation or a silent Unknown.
  for (const char* path : {"no_such_attr", "name.more"}) {
    GlobalQuery bad = query_;
    bad.where(path, CompOp::Eq, "x");
    EXPECT_THROW((void)unsolved_items_of_all_roots(fed(), bad, DbId{1},
                                                   nullptr),
                 QueryError)
        << path;
    EXPECT_THROW((void)plan_checks(fed(), bad, DbId{1}, {}), QueryError)
        << path;
    EXPECT_THROW((void)run_checks(fed(), bad, DbId{3}, {}), QueryError)
        << path;
  }
}

// ---- residual-condition goldens ----------------------------------------
//
// The report goldens (tests/report_digest.hpp) hash each row's entity,
// status and targets, never its residual condition or confidence, so a
// certification rewrite that reorders or drops a condition leaf would pass
// them. These lines pin every row's printed condition and confidence bits.

constexpr std::uint64_t kConditionSamples = 40;

/// Every strategy's condition digest on one Table-2 sample: the localized
/// and centralized kinds plus IM at thresh=0.5. `forced` selects R_m = 0.3
/// on every class; otherwise the sample draws R_m from Table 2.
std::vector<std::string> condition_golden_lines(std::uint64_t seed,
                                                bool forced) {
  ParamConfig config;
  Rng rng(derive_stream(0xC0'4D17'10ULL, seed));
  config.n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  config.n_objects = {40, 80};  // scaled down; structure unchanged
  if (forced) config.forced_missing_rate = 0.3;
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const ImputeModel model = ImputeModel::build(*synth.federation);

  std::vector<StrategyKind> kinds(std::begin(kAllStrategies),
                                  std::end(kAllStrategies));
  kinds.push_back(StrategyKind::IM);
  std::vector<std::string> lines;
  for (const StrategyKind kind : kinds) {
    StrategyOptions options;
    if (kind == StrategyKind::IM) {
      options.impute = &model;
      options.impute_threshold = 0.5;
    }
    const StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    std::ostringstream rows;
    for (const ResultRow& row : report.result.rows) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &row.confidence, sizeof bits);
      rows << row.entity.value() << '|' << row.condition.to_string() << '|'
           << bits << ';';
    }
    std::ostringstream line;
    line << "seed=" << seed << " rm=" << (forced ? "0.3" : "table2")
         << " kind=" << to_string(kind)
         << " rows=" << report.result.rows.size() << " conds=" << std::hex
         << testing::fnv1a(rows.str());
    lines.push_back(line.str());
  }
  return lines;
}

/// Regenerating (only after an *intentional* change to the residuals, with
/// the rationale recorded in the commit):
///   ISOMER_REGOLDEN=/path/to/condition_reports.golden ./test_checks_certify \
///       --gtest_filter='ConditionReportGoldens.*'
/// writes the current build's lines instead of comparing.
TEST(ConditionReportGoldens, ResidualsMatchCheckedInDigests) {
  std::vector<std::string> current;
  for (const bool forced : {false, true})
    for (std::uint64_t seed = 1; seed <= kConditionSamples; ++seed)
      for (std::string& line : condition_golden_lines(seed, forced))
        current.push_back(std::move(line));
  if (const char* path = std::getenv("ISOMER_REGOLDEN")) {
    std::ofstream out(path);
    out << "# Residual condition + confidence digests per (sample, "
           "strategy); IM at thresh=0.5.\n"
        << "# Regenerate per the recipe in test_checks_certify.cpp.\n";
    for (const std::string& line : current) out << line << "\n";
    GTEST_SKIP() << "goldens regenerated, comparison skipped";
  }
  std::ifstream in(ISOMER_CONDITION_GOLDEN_FILE);
  ASSERT_TRUE(in.is_open()) << "cannot open " << ISOMER_CONDITION_GOLDEN_FILE;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  ASSERT_EQ(current.size(), golden.size());
  for (std::size_t i = 0; i < current.size(); ++i)
    EXPECT_EQ(current[i], golden[i]);
}

}  // namespace
}  // namespace isomer
