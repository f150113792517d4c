// Row-vs-columnar bitwise parity — the contract that makes the columnar
// fast path safe to enable by default: with StrategyOptions::columnar
// toggled, every strategy execution must produce the *identical*
// StrategyReport — answer rows, simulated times, wire bytes and messages,
// and the full aggregated AccessMeter — across randomized Table-2
// workloads, plain, batched and fault-injected. A single diverging counter
// anywhere fails the suite, so a kernel that reorders (rather than
// preserves) metered work cannot land silently.
//
// The ASan recipe (docs/PERFORMANCE.md): configure with
// `cmake -DISOMER_SANITIZE=address` and run this binary — the kernels'
// arena arithmetic and selection vectors then execute under
// AddressSanitizer on every seed.
#include <gtest/gtest.h>

#include "isomer/core/local_exec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

ParamConfig parity_config(std::size_t n_db) {
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {40, 80};  // scaled down; structure unchanged
  return config;
}

void expect_same_report(const StrategyReport& row, const StrategyReport& col,
                        StrategyKind kind, std::uint64_t seed,
                        const char* mode) {
  EXPECT_EQ(col.result, row.result)
      << to_string(kind) << " rows diverged (" << mode << ", seed " << seed
      << ")";
  EXPECT_EQ(col.response_ns, row.response_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(col.total_ns, row.total_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(col.cpu_ns, row.cpu_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(col.disk_ns, row.disk_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(col.net_ns, row.net_ns) << to_string(kind) << " " << mode;
  EXPECT_EQ(col.bytes_transferred, row.bytes_transferred)
      << to_string(kind) << " " << mode;
  EXPECT_EQ(col.messages, row.messages) << to_string(kind) << " " << mode;
  EXPECT_TRUE(col.work == row.work)
      << to_string(kind) << " meter diverged (" << mode << ", seed " << seed
      << ")";
  EXPECT_EQ(col.unavailable_sites, row.unavailable_sites)
      << to_string(kind) << " " << mode;
  EXPECT_EQ(col.retries, row.retries) << to_string(kind) << " " << mode;
  EXPECT_EQ(col.failed_messages, row.failed_messages)
      << to_string(kind) << " " << mode;
}

class ColumnarParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColumnarParity, StrategiesBitwiseIdenticalRowVsColumnar) {
  Rng rng(GetParam());
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const SampleParams sample = draw_sample(parity_config(n_db), rng);
  const SynthFederation synth = materialize_sample(sample);

  // Three execution environments: plain, batched semijoin shipping, and
  // fault injection with graceful degradation. The columnar toggle must be
  // invisible in all of them.
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
      StrategyOptions row_options = options;
      row_options.columnar = false;
      const StrategyReport row =
          execute_strategy(kind, *synth.federation, synth.query, row_options);
      const StrategyReport col =
          execute_strategy(kind, *synth.federation, synth.query, options);
      expect_same_report(row, col, kind, GetParam(), mode.name);
    }
  }
}

TEST_P(ColumnarParity, LocalExecutionsFieldIdentical) {
  // One level below the strategies: the LocalExecution a home database
  // ships — row list, per-row predicate statuses (including which entity
  // holds the missing data), targets, meter, candidate count — must match
  // field for field at every database of the federation.
  Rng rng(GetParam() + 100000);
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const SampleParams sample = draw_sample(parity_config(n_db), rng);
  const SynthFederation synth = materialize_sample(sample);
  const Federation& fed = *synth.federation;

  for (std::size_t i = 1; i <= n_db; ++i) {
    const DbId db{static_cast<std::uint16_t>(i)};
    const LocalExecution row =
        run_local_query(fed, synth.query, db, nullptr, false);
    const LocalExecution col =
        run_local_query(fed, synth.query, db, nullptr, true);
    EXPECT_TRUE(row.meter == col.meter) << "meter diverged at DB" << i;
    EXPECT_EQ(row.considered, col.considered);
    ASSERT_EQ(row.rows.size(), col.rows.size()) << "at DB" << i;
    for (std::size_t r = 0; r < row.rows.size(); ++r) {
      const LocalRow& a = row.rows[r];
      const LocalRow& b = col.rows[r];
      EXPECT_EQ(a.root, b.root);
      EXPECT_EQ(a.entity, b.entity);
      EXPECT_EQ(a.targets, b.targets);
      ASSERT_EQ(a.preds.size(), b.preds.size());
      for (std::size_t p = 0; p < a.preds.size(); ++p) {
        EXPECT_EQ(a.preds[p].truth, b.preds[p].truth)
            << "DB" << i << " row " << r << " pred " << p;
        EXPECT_EQ(a.preds[p].item, b.preds[p].item)
            << "DB" << i << " row " << r << " pred " << p;
        EXPECT_EQ(a.preds[p].step, b.preds[p].step);
        EXPECT_EQ(a.preds[p].root_level, b.preds[p].root_level);
      }
    }
  }
}

// 70 seeds x 3 strategies x 3 environments (plus the local-execution
// variant) comfortably clears the suite's 60-seed floor.
INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarParity,
                         ::testing::Range<std::uint64_t>(1, 71));

}  // namespace
}  // namespace isomer
