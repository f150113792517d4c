// Operator-pipeline parity — the refactor guard for the composable-operator
// executors (core/operators.hpp).
//
// PR 7 rebuilt the monolithic CA/BL/PL drivers as operator pipelines; this
// suite proves the rebuild is *bitwise invisible*: across a seed sweep of
// randomized Table-2 federations, every strategy × execution mode (plain,
// batched, frame-capped, fault-injected, faulted+batched) must
// reproduce the exact StrategyReport the pre-refactor executors produced —
// response/total/cpu/disk/net times, wire bytes and messages, the full
// AccessMeter, fault-side figures, and the answer rows. The expected values
// live in tests/goldens/strategy_reports.golden, captured from the
// pre-refactor build; a single diverging nanosecond anywhere fails a line.
//
// Regenerating goldens (only after an *intentional* cost-model change, with
// the rationale recorded in the commit):
//   ISOMER_REGOLDEN=/path/to/strategy_reports.golden ./test_operator_parity
// writes the current build's digests instead of comparing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "isomer/core/cert_cache.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/workload/synth.hpp"
#include "report_digest.hpp"

#ifndef ISOMER_GOLDEN_FILE
#define ISOMER_GOLDEN_FILE "strategy_reports.golden"
#endif

namespace isomer {
namespace {

constexpr std::uint64_t kSeeds = 30;

ParamConfig parity_config(std::size_t n_db) {
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {40, 80};  // scaled down; structure unchanged
  return config;
}

struct Mode {
  const char* name;
  bool batched;
  std::size_t batch_cap;
  bool faulted;
};

constexpr Mode kModes[] = {
    {"plain", false, 0, false},  {"batch", true, 0, false},
    {"batch3", true, 3, false},  {"faults", false, 0, true},
    {"faults+batch", true, 0, true},
};

/// Computes every case's digest line for one seed, in a fixed case order.
std::vector<std::string> digest_seed(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  const SampleParams sample = draw_sample(parity_config(n_db), rng);
  const SynthFederation synth = materialize_sample(sample);

  fault::FaultPlan plan;
  plan.drop_probability = 0.08;
  plan.spike_probability = 0.1;
  plan.seed = seed * 7919 + 13;

  std::vector<std::string> lines;
  for (const Mode& mode : kModes) {
    for (const StrategyKind kind : kAllStrategies) {
      StrategyOptions options;
      options.batch.enabled = mode.batched;
      options.batch.max_records = mode.batch_cap;
      if (mode.faulted) {
        options.faults = &plan;
        options.retry.max_retries = 5;
        options.degrade = fault::DegradeMode::Partial;
      }
      const StrategyReport report =
          execute_strategy(kind, *synth.federation, synth.query, options);
      std::ostringstream label;
      label << "seed=" << seed << " mode=" << mode.name
            << " kind=" << to_string(kind);
      lines.push_back(testing::report_digest_line(label.str(), report));
    }
  }
  return lines;
}

std::map<std::string, std::string> parse_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open golden file " << path;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The label is the first three space-separated fields.
    std::size_t pos = 0;
    for (int field = 0; field < 3 && pos != std::string::npos; ++field)
      pos = line.find(' ', pos + 1);
    if (pos == std::string::npos) {
      ADD_FAILURE() << "malformed golden line: " << line;
      continue;
    }
    golden.emplace(line.substr(0, pos), line.substr(pos));
  }
  return golden;
}

/// ISOMER_REGOLDEN=path regenerates instead of comparing (see file header).
bool maybe_regolden() {
  const char* path = std::getenv("ISOMER_REGOLDEN");
  if (path == nullptr) return false;
  std::ofstream out(path);
  out << "# Pre-refactor StrategyReport digests (tests/report_digest.hpp "
         "format).\n"
      << "# One line per (seed, mode, strategy); regenerate per the recipe "
         "in test_operator_parity.cpp.\n";
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
    for (const std::string& line : digest_seed(seed)) out << line << "\n";
  return true;
}

class OperatorParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperatorParity, ReportsMatchPreRefactorGoldens) {
  static const bool regolden = maybe_regolden();
  if (regolden) GTEST_SKIP() << "goldens regenerated, comparison skipped";
  static const std::map<std::string, std::string> golden =
      parse_golden(ISOMER_GOLDEN_FILE);
  for (const std::string& line : digest_seed(GetParam())) {
    const std::size_t pos = [&] {
      std::size_t p = 0;
      for (int field = 0; field < 3; ++field) p = line.find(' ', p + 1);
      return p;
    }();
    const std::string label = line.substr(0, pos);
    const auto it = golden.find(label);
    ASSERT_NE(it, golden.end()) << "no golden for case: " << label;
    EXPECT_EQ(it->second, line.substr(pos))
        << "operator pipeline diverged from the pre-refactor executor at "
        << label;
  }
}

// 30 seeds x 5 modes x 5 strategies = 750 pinned executions.
INSTANTIATE_TEST_SUITE_P(Seeds, OperatorParity,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

TEST(OperatorParity, CertCacheOffAndColdAreBitwiseInvisible) {
  // The certificate cache (core/cert_cache.hpp) is strictly additive, and
  // deliberately not a golden Mode: StrategyOptions::cert_cache = nullptr
  // (the --certcache=off setting) must be the byte-for-byte pre-cache
  // executor, and even an attached-but-COLD cache is invisible — nothing is
  // written back until certification, so a first execution never finds a
  // hit and must not perturb a single simulated nanosecond. Only a WARM
  // cache may differ, and then only by stripping check traffic: identical
  // answer, no more wire.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::size_t n_db =
        2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    const SampleParams sample = draw_sample(parity_config(n_db), rng);
    const SynthFederation synth = materialize_sample(sample);
    for (const StrategyKind kind : kAllStrategies) {
      StrategyOptions plain;
      const StrategyReport baseline =
          execute_strategy(kind, *synth.federation, synth.query, plain);
      const std::string expected =
          testing::report_digest_line("case", baseline);

      StrategyOptions off = plain;
      off.cert_cache = nullptr;  // explicit, not just defaulted
      const StrategyReport without =
          execute_strategy(kind, *synth.federation, synth.query, off);
      EXPECT_EQ(testing::report_digest_line("case", without), expected)
          << "seed=" << seed << " kind=" << to_string(kind);

      CertCache cache;
      StrategyOptions with = plain;
      with.cert_cache = &cache;
      const StrategyReport cold =
          execute_strategy(kind, *synth.federation, synth.query, with);
      EXPECT_EQ(testing::report_digest_line("case", cold), expected)
          << "cold cache perturbed seed=" << seed
          << " kind=" << to_string(kind);

      const StrategyReport warm =
          execute_strategy(kind, *synth.federation, synth.query, with);
      EXPECT_EQ(warm.result, baseline.result)
          << "warm cache changed the answer, seed=" << seed
          << " kind=" << to_string(kind);
      EXPECT_LE(warm.bytes_transferred, baseline.bytes_transferred)
          << "seed=" << seed << " kind=" << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace isomer
