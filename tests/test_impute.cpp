// Property suite for the IM strategy (core/im.cpp) and its population
// model (analytic/impute.hpp) — the probabilistic-certification contract:
//
//   * thresh=1.0 identity, 200 seeds: smoothed confidences are strictly
//     below 1, so a threshold of 1.0 never clears a check and IM is
//     *bitwise* identical to BL — full StrategyReport digest, every cost
//     figure and simulator timestamp — including composed with batching,
//     the row-at-a-time reference path (columnar off), and fault injection
//     with partial degradation;
//   * confidence calibration at a working threshold: pooled over many
//     seeds, the precision of the confident rows against the complete-data
//     ground truth (the clean twin re-materialized with R_m = 0) is at
//     least the threshold, rows that consumed an estimate carry a
//     confidence in [thresh, 1), and exact rows carry exactly 1;
//   * decision goldens below thresh=1.0: IM's full report digest plus its
//     imputed/declined counts and row confidences at thresh=0.5, under both
//     mech=mcar and mech=mar, over 40 R_m = 0.3 samples, checked against
//     tests/goldens/im_reports.golden — a decide() verdict or confidence
//     that changes what IM does moves a line;
//   * ordered counting: satisfying_count's two searches equal a brute-force
//     apply() count over fuzzed histograms of every key kind and edge value
//     (ints past 2^53, signed zeros, infinities, NaN, shared-prefix strings,
//     bools, mixed kinds) against literals of every kind and all six CompOps,
//     throwing QueryError exactly where apply() does; and ValueOrder stays a
//     strict weak order with NaN reals in the histogram;
//   * --jobs invariance: the bench-harness trial loop produces bitwise
//     identical per-trial IM digests at every thread count;
//   * executing IM without an oracle is a hard ImputeError — the
//     estimators live a layer above core and cannot be conjured there.
//
// The --impute spec grammar itself is fuzzed in test_parser_fuzz.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/common/error.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/workload/synth.hpp"

#include "harness.hpp"
#include "report_digest.hpp"

#ifndef ISOMER_IM_GOLDEN_FILE
#define ISOMER_IM_GOLDEN_FILE "im_reports.golden"
#endif

namespace isomer {
namespace {

using testing::report_digest_line;

ParamConfig small_config(std::size_t n_db, double miss_rate) {
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {20, 40};  // scaled down; structure unchanged
  config.forced_missing_rate = miss_rate;
  return config;
}

/// The clean twin of a drawn sample: R_m forced to zero everywhere. The
/// injection draws happen after the whole entity universe is drawn, so the
/// twin materializes the identical entities, LOids and GOids — only the
/// value nulls differ (see bench/bench_impute.cpp).
SampleParams clean_twin(SampleParams sample) {
  for (auto& cls : sample.classes)
    for (auto& db : cls.dbs) db.extra_missing = 0;
  return sample;
}

// ---- thresh = 1.0 bitwise identity -----------------------------------

class ImThresholdOneIdentity : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ImThresholdOneIdentity, ImIsBitwiseBlUnderEveryComposition) {
  Rng rng(GetParam());
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  const double miss = rng.uniform_real(0.05, 0.35);
  const SampleParams sample = draw_sample(small_config(n_db, miss), rng);
  const SynthFederation synth = materialize_sample(sample);
  const ImputeModel model = ImputeModel::build(*synth.federation);

  // A deterministic outage plus message drops: at thresh=1.0 the filter
  // strips nothing, so the message sequence — and with it the per-attempt
  // fault RNG replay — is identical and even the faulted run must match.
  fault::FaultPlan plan;
  plan.seed = derive_stream(0x13B1'7F00ULL, GetParam());
  if (rng.bernoulli(0.4))
    plan.outages.push_back(
        fault::Outage{DbId{static_cast<std::uint16_t>(2)}, 0, fault::kForever});
  plan.drop_probability = 0.05;

  struct Variant {
    const char* label;
    bool columnar;
    bool batch;
    bool faults;
  };
  const Variant variants[] = {
      {"plain", true, false, false},
      {"row-at-a-time", false, false, false},
      {"batched", true, true, false},
      {"faulted", true, false, true},
      {"all-composed", false, true, true},
  };
  for (const Variant& v : variants) {
    StrategyOptions exec;
    exec.record_trace = false;
    exec.columnar = v.columnar;
    exec.batch.enabled = v.batch;
    if (v.faults) {
      exec.faults = &plan;
      exec.retry.max_retries = 8;
      exec.degrade = fault::DegradeMode::Partial;
    }
    const StrategyReport bl =
        execute_strategy(StrategyKind::BL, *synth.federation, synth.query,
                         exec);
    exec.impute = &model;
    exec.impute_threshold = 1.0;
    const StrategyReport im =
        execute_strategy(StrategyKind::IM, *synth.federation, synth.query,
                         exec);
    EXPECT_EQ(report_digest_line(v.label, im), report_digest_line(v.label, bl))
        << "seed " << GetParam();
    EXPECT_EQ(im.imputed_atoms, 0u) << v.label << " seed " << GetParam();
    for (const ResultRow& row : im.result.rows)
      EXPECT_EQ(row.confidence, 1.0)
          << v.label << " row " << row.entity.value() << " seed "
          << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImThresholdOneIdentity,
                         ::testing::Range<std::uint64_t>(1, 201));

// ---- confidence calibration ------------------------------------------

TEST(ImCalibration, ConfidentRowPrecisionReachesTheThreshold) {
  // Pooled over 40 seeds at R_m = 0.3 and the documented working threshold
  // (see bench_impute): among certain rows whose certification consumed an
  // estimate, the fraction actually in the complete-data answer is at least
  // the threshold, and the per-row confidence bounds hold exactly.
  constexpr double kThreshold = 0.5;
  std::uint64_t imputed = 0, imputed_correct = 0, imputed_atoms = 0;
  // Populations large enough for informative histograms (the 20-40-object
  // identity federations are deliberately starved; a calibration claim
  // needs the estimators to actually see a distribution).
  ParamConfig config = small_config(3, 0.30);
  config.n_objects = {150, 300};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(derive_stream(0xCA11'B8A7ULL, seed));
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const SynthFederation clean = materialize_sample(clean_twin(sample));
    std::set<std::uint64_t> truth;
    const QueryResult complete =
        reference_answer(*clean.federation, clean.query);
    for (const ResultRow& row : complete.rows)
      if (row.status == ResultStatus::Certain)
        truth.insert(row.entity.value());
    const ImputeModel model = ImputeModel::build(*synth.federation);

    StrategyOptions exec;
    exec.record_trace = false;
    exec.impute = &model;
    exec.impute_threshold = kThreshold;
    const StrategyReport report = execute_strategy(
        StrategyKind::IM, *synth.federation, synth.query, exec);
    imputed_atoms += report.imputed_atoms;
    for (const ResultRow& row : report.result.rows) {
      if (row.status != ResultStatus::Certain) continue;
      if (row.confidence >= 1.0) {
        EXPECT_EQ(row.confidence, 1.0);  // exact rows are exactly exact
        continue;
      }
      // An upgraded row's confidence is a product of cleared estimates,
      // each at or above the threshold — but the *row* commits only when
      // its whole condition decides, so the product itself must clear too.
      EXPECT_GE(row.confidence, kThreshold)
          << "seed " << seed << " row " << row.entity.value();
      ++imputed;
      if (truth.count(row.entity.value()) > 0) ++imputed_correct;
    }
  }
  ASSERT_GT(imputed_atoms, 0u) << "the model never cleared a check";
  ASSERT_GT(imputed, 0u) << "no row ever consumed an estimate";
  EXPECT_GE(static_cast<double>(imputed_correct),
            kThreshold * static_cast<double>(imputed))
      << "pooled precision " << imputed_correct << "/" << imputed
      << " fell below the confidence threshold";
}

// ---- decision goldens -------------------------------------------------

constexpr std::uint64_t kGoldenSamples = 40;

/// One seed's golden lines: IM at thresh=0.5 under mech=mcar, then mech=mar,
/// on one R_m = 0.3 Table-2 sample. Each line is the report digest plus the
/// decision tallies and a hash of every row's confidence (which the digest's
/// answer hash leaves out), so the line moves when a changed decide()
/// verdict or confidence changes what IM does.
std::vector<std::string> im_golden_lines(std::uint64_t seed) {
  ParamConfig config = small_config(3, 0.30);
  config.n_objects = {150, 300};
  Rng rng(derive_stream(0x601D'E17EULL, seed));
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const ImputeModel model = ImputeModel::build(*synth.federation);
  std::vector<std::string> lines;
  for (const bool mar : {false, true}) {
    StrategyOptions exec;
    exec.record_trace = false;
    exec.impute = &model;
    exec.impute_threshold = 0.5;
    exec.impute_mar = mar;
    const StrategyReport report = execute_strategy(
        StrategyKind::IM, *synth.federation, synth.query, exec);
    std::ostringstream confidences;
    for (const ResultRow& row : report.result.rows) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &row.confidence, sizeof bits);
      confidences << bits << ';';
    }
    const std::string label = "seed=" + std::to_string(seed) +
                              " mech=" + (mar ? "mar" : "mcar");
    lines.push_back(report_digest_line(label, report) +
                    " imputed=" + std::to_string(report.imputed_atoms) +
                    " declined=" + std::to_string(report.impute_declined) +
                    " conf=" +
                    std::to_string(testing::fnv1a(confidences.str())));
  }
  return lines;
}

/// Regenerating (only after an *intentional* change to IM's decisions, with
/// the rationale recorded in the commit):
///   ISOMER_REGOLDEN=/path/to/im_reports.golden ./test_impute \
///       --gtest_filter='ImReportGoldens.*'
/// writes the current build's lines instead of comparing.
TEST(ImReportGoldens, DecisionsMatchCheckedInDigests) {
  if (const char* path = std::getenv("ISOMER_REGOLDEN")) {
    std::ofstream out(path);
    out << "# IM StrategyReport digests at thresh=0.5 (tests/report_digest.hpp "
           "format + imputed/declined/conf).\n"
        << "# One line per (seed, mech); regenerate per the recipe in "
           "test_impute.cpp.\n";
    for (std::uint64_t seed = 1; seed <= kGoldenSamples; ++seed)
      for (const std::string& line : im_golden_lines(seed)) out << line << "\n";
    GTEST_SKIP() << "goldens regenerated, comparison skipped";
  }
  std::ifstream in(ISOMER_IM_GOLDEN_FILE);
  ASSERT_TRUE(in.is_open()) << "cannot open " << ISOMER_IM_GOLDEN_FILE;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  std::vector<std::string> current;
  for (std::uint64_t seed = 1; seed <= kGoldenSamples; ++seed)
    for (const std::string& line : im_golden_lines(seed))
      current.push_back(line);
  ASSERT_EQ(current.size(), golden.size());
  for (std::size_t i = 0; i < current.size(); ++i)
    EXPECT_EQ(current[i], golden[i]);
}

// ---- ordered satisfying counts ---------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

/// Histogram keys by kind, each pool crowding the edges of its ordering.
std::vector<Value> int_keys() {
  std::vector<Value> keys;
  for (std::int64_t d = -3; d <= 3; ++d) {
    keys.emplace_back(kTwo53 + d);
    keys.emplace_back(-kTwo53 + d);
    keys.emplace_back(d);
  }
  keys.emplace_back(std::numeric_limits<std::int64_t>::max());
  keys.emplace_back(std::numeric_limits<std::int64_t>::min());
  keys.emplace_back(std::int64_t{999});
  return keys;
}
std::vector<Value> real_keys() {
  return {Value(-0.0), Value(0.0),   Value(kInf),  Value(-kInf),
          Value(0.5),  Value(-0.5),  Value(1e308), Value(-1e308),
          Value(5e-324), Value(9007199254740992.0), Value(9007199254740994.0),
          Value(3.0)};
}
std::vector<Value> string_keys() {
  return {Value(""),   Value("a"),   Value("ab"),  Value("abc"),
          Value("abd"), Value("abcd"), Value("b"),  Value("B"),
          Value("ab "), Value("zz")};
}

/// Literals of every kind, including ones no histogram key equals.
std::vector<Value> literals() {
  std::vector<Value> out = {Value::null(),
                            Value(true),
                            Value(false),
                            Value(kNaN),
                            Value(-kNaN),
                            Value(kInf),
                            Value(-kInf),
                            Value(-0.0),
                            Value(2.5),
                            Value(9007199254740993.0),
                            Value(static_cast<double>(kTwo53) + 2.0),
                            Value(-static_cast<double>(kTwo53)),
                            Value("abc"),
                            Value("abcc"),
                            Value("")};
  for (const auto& pool : {int_keys(), real_keys(), string_keys()})
    out.insert(out.end(), pool.begin(), pool.end());
  return out;
}

constexpr CompOp kAllOps[] = {CompOp::Eq, CompOp::Ne, CompOp::Lt,
                              CompOp::Le, CompOp::Gt, CompOp::Ge};

/// The count or, where the evaluation throws QueryError, nullopt.
template <typename Count>
std::optional<std::uint64_t> count_or_throw(Count&& count) {
  try {
    return count();
  } catch (const QueryError&) {
    return std::nullopt;
  }
}

TEST(ImSatisfyingCount, OrderedCountEqualsBruteForceApply) {
  const std::vector<Value> lits = literals();
  // Histogram shapes: one kind each, NaN-carrying reals, bools, a mixed
  // Int+Real histogram, a mixed Int+String one, and the empty histogram.
  std::vector<std::vector<Value>> pools = {
      int_keys(), real_keys(), string_keys(), {Value(true), Value(false)}};
  pools.push_back(real_keys());
  pools.back().push_back(Value(kNaN));
  pools.push_back(int_keys());
  for (const Value& v : real_keys()) pools.back().push_back(v);
  pools.push_back(int_keys());
  pools.back().push_back(Value("abc"));
  pools.emplace_back();

  Rng rng(0x5A7C'0047ULL);
  std::uint64_t fast_cases = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Value>& pool = pools[rng.index(pools.size())];
    ValueHistogram hist;
    for (const Value& key : pool)
      if (rng.bernoulli(0.6))
        hist[key].count += static_cast<std::uint64_t>(rng.uniform_int(1, 5));
    accumulate(hist);
    for (const CompOp op : kAllOps) {
      for (const Value& literal : lits) {
        const auto brute = count_or_throw([&] {
          std::uint64_t sat = 0;
          for (const auto& [value, bucket] : hist)
            if (is_true(apply(op, value, literal))) sat += bucket.count;
          return sat;
        });
        const auto ordered = count_or_throw(
            [&] { return satisfying_count(hist, op, literal); });
        ASSERT_EQ(ordered, brute)
            << "trial " << trial << " op " << to_string(op) << " literal "
            << literal << " keys " << hist.size();
        fast_cases += brute.has_value() ? 1 : 0;
      }
    }
  }
  EXPECT_GT(fast_cases, 0u);
}

TEST(ImSatisfyingCount, RunningCountsCoverTheHistogram) {
  ValueHistogram hist;
  hist[Value(7)].count = 2;
  hist[Value(3)].count = 5;
  hist[Value(11)].count = 1;
  accumulate(hist);
  std::vector<std::uint64_t> through;
  for (const auto& [value, bucket] : hist) through.push_back(bucket.through);
  EXPECT_EQ(through, (std::vector<std::uint64_t>{5, 7, 8}));
  EXPECT_EQ(satisfying_count(hist, CompOp::Lt, Value(7.5)), 7u);
  EXPECT_EQ(satisfying_count(hist, CompOp::Eq, Value(7.0)), 2u);
  EXPECT_EQ(satisfying_count(hist, CompOp::Ge, Value(kInf)), 0u);
  EXPECT_EQ(satisfying_count(ValueHistogram{}, CompOp::Ne, Value(1)), 0u);
}

TEST(ImValueOrder, NaNRealsSortLastAndEquivalent) {
  const ValueOrder less;
  const Value nan(kNaN), other_nan(-kNaN);
  EXPECT_FALSE(less(nan, nan));
  EXPECT_FALSE(less(nan, other_nan));
  EXPECT_FALSE(less(other_nan, nan));
  for (const Value& real : real_keys()) {
    EXPECT_TRUE(less(real, nan)) << real;
    EXPECT_FALSE(less(nan, real)) << real;
  }
  // Kinds still order first: NaN stays above every Int, below every String.
  EXPECT_TRUE(less(Value(std::numeric_limits<std::int64_t>::max()), nan));
  EXPECT_TRUE(less(nan, Value("")));

  // Strict weak order over a pool mixing NaNs into every kind: irreflexive,
  // transitive, and incomparability transitive.
  std::vector<Value> pool = literals();
  pool.push_back(Value(kNaN));
  const auto equiv = [&](const Value& a, const Value& b) {
    return !less(a, b) && !less(b, a);
  };
  for (const Value& a : pool) {
    EXPECT_FALSE(less(a, a)) << a;
    for (const Value& b : pool)
      for (const Value& c : pool) {
        if (less(a, b) && less(b, c)) EXPECT_TRUE(less(a, c)) << a << b << c;
        if (equiv(a, b) && equiv(b, c)) EXPECT_TRUE(equiv(a, c)) << a << b << c;
      }
  }

  // Every NaN lands in one histogram bucket, after the other reals.
  ValueHistogram hist;
  for (const Value& v : {Value(kNaN), Value(1.0), Value(-kNaN), Value(kInf)})
    ++hist[v].count;
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_TRUE(std::isnan(hist.rbegin()->first.as_real()));
  EXPECT_EQ(hist.rbegin()->second.count, 2u);
}

// ---- --jobs invariance -----------------------------------------------

TEST(ImJobsDeterminism, TrialDigestsIdenticalAcrossJobCounts) {
  // The IM trial body — sample, model build, execution — through the bench
  // harness's parallel runner: trial i always draws from the stream
  // derive_stream(seed, i) and the model build is deterministic in the
  // federation contents, so every --jobs value must reproduce the same
  // per-trial report digests bitwise.
  constexpr int kSamples = 6;
  const auto run = [&](int jobs) {
    std::vector<std::string> digests(kSamples);
    bench::for_each_trial(kSamples, /*seed=*/77, jobs,
                          [&](std::size_t s, Rng& rng) {
      const SampleParams sample = draw_sample(small_config(3, 0.25), rng);
      const SynthFederation synth = materialize_sample(sample);
      const ImputeModel model = ImputeModel::build(*synth.federation);
      StrategyOptions exec;
      exec.record_trace = false;
      exec.impute = &model;
      exec.impute_threshold = 0.5;
      const StrategyReport report = execute_strategy(
          StrategyKind::IM, *synth.federation, synth.query, exec);
      digests[s] =
          report_digest_line("t" + std::to_string(s), report) +
          " imputed=" + std::to_string(report.imputed_atoms) +
          " declined=" + std::to_string(report.impute_declined);
    });
    return digests;
  };
  const std::vector<std::string> serial = run(1);
  for (const int jobs : {2, 4})
    EXPECT_EQ(run(jobs), serial) << "jobs=" << jobs;
}

// ---- error surface ----------------------------------------------------

TEST(ImErrors, ExecutingWithoutAnOracleThrows) {
  Rng rng(0x1111ULL);
  const SampleParams sample = draw_sample(small_config(3, 0.15), rng);
  const SynthFederation synth = materialize_sample(sample);
  StrategyOptions exec;  // impute oracle left null
  exec.record_trace = false;
  EXPECT_THROW((void)execute_strategy(StrategyKind::IM, *synth.federation,
                                      synth.query, exec),
               ImputeError);
}

}  // namespace
}  // namespace isomer
