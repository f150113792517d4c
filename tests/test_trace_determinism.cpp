// --trace output must be --jobs-invariant, mirroring
// test_harness_determinism: every Monte-Carlo trial records its spans into
// its own TraceSession and the harness serializes them in trial order, so
// the recorded span set — and the bytes of the trace file — are identical
// at every thread count. (Span times are *simulated* ns, so even the
// "wall-time" fields are deterministic; the sorted-set comparison below
// ignores them anyway to pin down the invariant that matters.)
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"

namespace isomer {
namespace {

using obs::PhaseSpan;
using obs::TraceSession;

ParamConfig tiny_config() {
  ParamConfig config;
  config.n_objects = {40, 60};  // keep the DES side fast
  return config;
}

/// Collects every trial's spans in trial order at the given job count.
std::vector<PhaseSpan> spans_at(int jobs, int samples, std::uint64_t seed) {
  const std::vector<StrategyKind> kinds = {StrategyKind::CA, StrategyKind::BL,
                                           StrategyKind::PL};
  const ParamConfig config = tiny_config();
  std::vector<TraceSession> sessions(static_cast<std::size_t>(samples));
  bench::for_each_trial(samples, seed, jobs, [&](std::size_t i, Rng& rng) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    for (const StrategyKind kind : kinds) {
      StrategyOptions options;
      options.trace_session = &sessions[i];
      (void)execute_strategy(kind, *synth.federation, synth.query, options);
    }
  });
  std::vector<PhaseSpan> all;
  for (const TraceSession& session : sessions)
    for (const PhaseSpan& span : session.spans()) all.push_back(span);
  return all;
}

/// Everything but the simulated interval, for the time-blind comparison.
auto time_blind_key(const PhaseSpan& span) {
  return std::make_tuple(span.strategy, span.query,
                         static_cast<int>(span.phase), span.site, span.step,
                         span.work.objects_scanned, span.work.objects_fetched,
                         span.work.comparisons, span.work.table_probes,
                         span.work.prim_slots, span.work.ref_slots,
                         span.bytes, span.messages, span.objects_in,
                         span.objects_out, span.certs_resolved,
                         span.certs_eliminated);
}

TEST(TraceDeterminism, SpanSetIdenticalAcrossJobCounts) {
  const std::vector<PhaseSpan> serial = spans_at(/*jobs=*/1, 6, 77);
  ASSERT_FALSE(serial.empty());
  for (const int jobs : {2, 4, 8}) {
    const std::vector<PhaseSpan> parallel = spans_at(jobs, 6, 77);
    // The strong form first: trial-ordered spans are *exactly* equal,
    // simulated times included.
    ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
    EXPECT_EQ(parallel, serial) << "jobs=" << jobs;

    // And the contract the docs promise: the sorted span set, ignoring the
    // wall-time fields, is identical.
    auto a = serial, b = parallel;
    const auto by_key = [](const PhaseSpan& x, const PhaseSpan& y) {
      return time_blind_key(x) < time_blind_key(y);
    };
    std::sort(a.begin(), a.end(), by_key);
    std::sort(b.begin(), b.end(), by_key);
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(time_blind_key(a[i]), time_blind_key(b[i]))
          << "jobs=" << jobs << " span " << i;
  }
}

/// The full --trace pipeline: run_point + TraceSink writing real files.
std::string trace_file_at(int jobs, const std::string& path) {
  bench::HarnessOptions options;
  options.samples = 5;
  options.seed = 41;
  options.jobs = jobs;
  options.trace_path = path;
  // The metrics trailer reports the process-global registry; reset it so
  // both runs append identical trailers.
  obs::MetricsRegistry::global().reset();
  {
    bench::TraceSink trace(options.trace_path, "test", options);
    EXPECT_TRUE(trace.enabled());
    trace.set_point("test", "N_o", 50);
    const std::vector<StrategyKind> kinds = {StrategyKind::CA,
                                             StrategyKind::BL};
    (void)bench::run_point(tiny_config(), kinds, options.samples,
                           options.seed, jobs, NetworkTopology::SharedBus,
                           0.3, trace.if_enabled());
  }  // destructor flushes the metrics trailer
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(TraceDeterminism, TraceFilesIdenticalAcrossJobCountsExceptHeader) {
  const std::string dir = ::testing::TempDir();
  const std::string serial = trace_file_at(1, dir + "trace_j1.jsonl");
  const std::string parallel = trace_file_at(4, dir + "trace_j4.jsonl");
  ASSERT_FALSE(serial.empty());

  // Line 1 is the header and legitimately differs: it reports the
  // effective --jobs value. Every following byte must match.
  const auto body = [](const std::string& text) {
    return text.substr(text.find('\n') + 1);
  };
  const std::string serial_header = serial.substr(0, serial.find('\n'));
  const std::string parallel_header = parallel.substr(0, parallel.find('\n'));
  EXPECT_NE(serial_header.find("\"jobs\":1"), std::string::npos)
      << serial_header;
  EXPECT_NE(parallel_header.find("\"jobs\":4"), std::string::npos)
      << parallel_header;
  EXPECT_EQ(body(serial), body(parallel));
}

TEST(TraceSink, AbortedRunLeavesAnExistingTraceFileUntouched) {
  // Regression: TraceSink used to open --trace=FILE with std::ios::trunc at
  // construction, so a sweep that aborted (usage error, uncaught exception,
  // crash) destroyed the previous run's trace. The sink now writes to
  // FILE.tmp and renames onto FILE only when the destructor runs.
  const std::string path = ::testing::TempDir() + "trace_no_trunc.jsonl";
  const std::string sentinel = "precious bytes from an earlier sweep\n";
  {
    std::ofstream out(path, std::ios::trunc);
    out << sentinel;
  }

  bench::HarnessOptions options;
  options.samples = 1;
  options.seed = 1;
  {
    bench::TraceSink sink(path, "test", options);
    ASSERT_TRUE(sink.enabled());
    // Mid-run — the moment an abort would strike — the original file still
    // holds the previous sweep, byte for byte.
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), sentinel);
    EXPECT_TRUE(std::ifstream(path + ".tmp").good())
        << "sink should be writing to the temp file";
  }  // clean completion: destructor renames the temp file into place

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str(), sentinel) << "completed run must replace the file";
  EXPECT_NE(buffer.str().find("isomer-trace-v1"), std::string::npos);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good())
      << "rename must consume the temp file";
}

}  // namespace
}  // namespace isomer
