// The obs/ observability layer: TraceSession span recording, the
// MetricsRegistry, the "isomer-trace-v1" JSONL encoding, and the
// per-phase EXPLAIN tree — plus the cardinal rule that tracing only
// *observes* an execution and never changes its metered work or its
// simulated cost figures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "isomer/core/explain.hpp"
#include "isomer/core/stream.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/obs/jsonl.hpp"
#include "isomer/obs/metrics.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/workload/paper_example.hpp"

namespace isomer {
namespace {

using obs::PhaseSpan;
using obs::TraceSession;

PhaseSpan make_span(std::string strategy, Phase phase, std::string site,
                    std::string step, SimTime start, SimTime end) {
  PhaseSpan span;
  span.strategy = std::move(strategy);
  span.phase = phase;
  span.site = std::move(site);
  span.step = std::move(step);
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(TraceSession, RecordsAndSums) {
  TraceSession session;
  EXPECT_TRUE(session.empty());

  PhaseSpan a = make_span("BL", Phase::P, "DB1", "C1 evaluate", 0, 10);
  a.objects_in = 7;
  a.objects_out = 3;
  PhaseSpan b = make_span("BL", Phase::P, "DB2", "C1 evaluate", 0, 20);
  b.objects_in = 5;
  b.objects_out = 2;
  PhaseSpan c = make_span("BL", Phase::I, "global", "G2 certify", 20, 30);
  c.certs_resolved = 4;
  session.record(a);
  session.record(b);
  session.record(c);

  EXPECT_EQ(session.size(), 3u);
  EXPECT_EQ(session.sum_over(Phase::P,
                             [](const PhaseSpan& s) { return s.objects_in; }),
            12u);
  EXPECT_EQ(session.sum_over(Phase::I,
                             [](const PhaseSpan& s) {
                               return s.certs_resolved;
                             }),
            4u);
  EXPECT_EQ(session.spans()[0], a);  // defaulted == covers every field

  session.clear();
  EXPECT_TRUE(session.empty());
}

TEST(Metrics, CounterAndHistogram) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("events");
  counter.add();
  counter.add(9);
  EXPECT_EQ(counter.value(), 10u);
  // The same name resolves to the same instance (stable references).
  EXPECT_EQ(&registry.counter("events"), &counter);

  obs::Histogram& hist = registry.histogram("latency");
  hist.record(1.0);
  hist.record(3.0);
  hist.record(1000.0);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 1004.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1004.0 / 3.0);
  ASSERT_EQ(snap.buckets.size(), obs::Histogram::kBuckets);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t n : snap.buckets) bucketed += n;
  EXPECT_EQ(bucketed, 3u);
  EXPECT_EQ(snap.buckets[0], 1u);  // 1.0 lands in [2^0, 2^1)
  EXPECT_EQ(snap.buckets[1], 1u);  // 3.0 lands in [2^1, 2^2)
  EXPECT_EQ(snap.buckets[9], 1u);  // 1000.0 lands in [2^9, 2^10)

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.snapshot().count, 0u);
  // reset() keeps references valid, it never reallocates.
  EXPECT_EQ(&registry.counter("events"), &counter);

  const std::string text = registry.to_text();
  EXPECT_NE(text.find("events"), std::string::npos);
  EXPECT_NE(text.find("latency"), std::string::npos);
}

TEST(Metrics, QuantilesArePinnedOnKnownSamples) {
  // The estimator is nearest-rank located in its power-of-two bucket and
  // linearly interpolated, clamped to [min, max]. For {1, 2, 3, 4}:
  //   buckets: 1 -> [0,2), {2,3} -> [2,4), 4 -> [4,8)
  //   p50: rank 2 is the 1st of 2 samples in [2,4) -> 2 + (1/2)*2 = 3.0
  //   p95/p99: rank 4 fills [4,8) -> interpolates to 8, clamps to max 4.0
  obs::Histogram hist;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) hist.record(v);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.p50(), 3.0);
  EXPECT_DOUBLE_EQ(snap.p95(), 4.0);
  EXPECT_DOUBLE_EQ(snap.p99(), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.5);

  // A constant series clamps every quantile to the single recorded value,
  // whatever the bucket interpolation says.
  obs::Histogram constant;
  for (int i = 0; i < 5; ++i) constant.record(100.0);
  const obs::Histogram::Snapshot flat = constant.snapshot();
  EXPECT_DOUBLE_EQ(flat.p50(), 100.0);
  EXPECT_DOUBLE_EQ(flat.p95(), 100.0);
  EXPECT_DOUBLE_EQ(flat.p99(), 100.0);

  // Empty histograms report 0 rather than infinities.
  const obs::Histogram::Snapshot empty = obs::Histogram{}.snapshot();
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.p99(), 0.0);
}

TEST(Metrics, OverflowBucketInterpolatesTowardTheRecordedMax) {
  // The last bucket absorbs everything >= 2^47 and has no real upper edge.
  // Its interpolation must run toward the recorded max — the old fictional
  // 2^48 edge made every overflow quantile clamp down to the recorded min.
  obs::Histogram hist;
  const double low = std::ldexp(1.0, 50), high = std::ldexp(1.0, 52);
  hist.record(low);
  hist.record(high);
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), high);  // q=1.0 pins to max
  EXPECT_DOUBLE_EQ(snap.p99(), high);
  // p50 (rank 1 of 2 in the open bucket) interpolates halfway from the
  // bucket floor 2^47 toward max, landing strictly between the samples.
  const double floor47 = std::ldexp(1.0, 47);
  EXPECT_DOUBLE_EQ(snap.p50(), floor47 + 0.5 * (high - floor47));
  EXPECT_GT(snap.p50(), snap.min);
  EXPECT_LT(snap.p50(), snap.max);

  // A single overflow sample: every quantile is that sample.
  obs::Histogram single;
  single.record(5e14);
  const obs::Histogram::Snapshot one = single.snapshot();
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(one.quantile(q), 5e14) << q;

  // All mass in the overflow bucket at one value: clamped to it exactly.
  obs::Histogram flat;
  for (int i = 0; i < 7; ++i) flat.record(floor47 * 3.0);
  const obs::Histogram::Snapshot all = flat.snapshot();
  EXPECT_DOUBLE_EQ(all.p50(), floor47 * 3.0);
  EXPECT_DOUBLE_EQ(all.quantile(1.0), floor47 * 3.0);
}

TEST(Metrics, QuantilesIgnoreRecordingOrder) {
  // The estimate depends only on bucket counts and min/max, so any
  // permutation of the same samples — e.g. concurrent recorders under
  // --jobs — yields bit-identical quantiles.
  const std::vector<double> samples{7.0, 0.5, 130.0, 33.0, 2.0, 2.0, 65.0};
  obs::Histogram forward, backward;
  for (const double v : samples) forward.record(v);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it)
    backward.record(*it);
  const obs::Histogram::Snapshot a = forward.snapshot();
  const obs::Histogram::Snapshot b = backward.snapshot();
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << q;
}

TEST(Jsonl, HistogramSummariesCarryQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("serve.latency_us");
  for (const double v : {1.0, 2.0, 3.0, 4.0}) hist.record(v);
  (void)registry.histogram("untouched");
  const std::string line = obs::metrics_to_json(registry);
  for (const char* needle :
       {"\"serve.latency_us\":{\"count\":4", "\"min\":1", "\"max\":4",
        "\"p50\":3", "\"p95\":4", "\"p99\":4"})
    EXPECT_NE(line.find(needle), std::string::npos) << needle << "\n" << line;
  // Empty histograms must omit the summary fields (their min/max are
  // infinities, which JSON cannot carry).
  EXPECT_NE(line.find("\"untouched\":{\"count\":0,\"sum\":0}"),
            std::string::npos)
      << line;
}

TEST(Jsonl, EscapesStrings) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(Jsonl, SpanRecordCarriesEveryField) {
  PhaseSpan span = make_span("CA", Phase::Transfer, "DB1->global",
                             "CA_C2 ship", 5, 25);
  span.bytes = 128;
  span.messages = 1;
  span.work.comparisons = 3;
  const std::string line = obs::span_to_json(span);
  for (const char* needle :
       {"\"type\":\"span\"", "\"strategy\":\"CA\"", "\"query\":0",
        "\"phase\":\"transfer\"", "\"site\":\"DB1->global\"",
        "\"step\":\"CA_C2 ship\"", "\"start_ns\":5", "\"end_ns\":25",
        "\"meter\":{", "\"comparisons\":3", "\"bytes\":128",
        "\"messages\":1", "\"objects_in\":0", "\"certs_resolved\":0"})
    EXPECT_NE(line.find(needle), std::string::npos) << needle << "\n" << line;

  obs::SpanContext context;
  context.figure = "fig9";
  context.x_name = "N_o";
  context.x = 1000;
  context.trial = 7;
  const std::string tagged = obs::span_to_json(span, &context);
  for (const char* needle : {"\"figure\":\"fig9\"", "\"x_name\":\"N_o\"",
                             "\"x\":1000", "\"trial\":7"})
    EXPECT_NE(tagged.find(needle), std::string::npos) << needle << "\n"
                                                      << tagged;
}

TEST(Jsonl, HeaderAndMetricsRecords) {
  const std::string header =
      obs::trace_header_json("bench_fig9", 4, 15, 1.0, 1996);
  for (const char* needle :
       {"\"type\":\"header\"", "\"format\":\"isomer-trace-v1\"",
        "\"tool\":\"bench_fig9\"", "\"jobs\":4", "\"samples\":15",
        "\"seed\":1996"})
    EXPECT_NE(header.find(needle), std::string::npos) << needle << "\n"
                                                      << header;

  obs::MetricsRegistry registry;
  registry.counter("bench.trials").add(8);
  registry.histogram("bench.response_ms").record(2.0);
  const std::string metrics = obs::metrics_to_json(registry);
  for (const char* needle :
       {"\"type\":\"metrics\"", "\"bench.trials\":8",
        "\"bench.response_ms\":{\"count\":1"})
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle << "\n"
                                                       << metrics;
}

// ---- Tracing against real executions (the paper's university example).

class ObsExecution : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = paper::make_university();
    query_ = paper::q1();
  }
  const Federation& fed() { return *example_.federation; }
  paper::UniversityExample example_;
  GlobalQuery query_;
};

TEST_F(ObsExecution, TracingNeverChangesTheExecution) {
  for (const StrategyKind kind : kAllStrategies) {
    StrategyOptions untraced;
    const StrategyReport baseline =
        execute_strategy(kind, fed(), query_, untraced);

    TraceSession session;
    StrategyOptions traced;
    traced.trace_session = &session;
    const StrategyReport probe = execute_strategy(kind, fed(), query_, traced);

    // Identical logical work, simulated cost, wire traffic and answer:
    // span recording observes the meters, it never charges them.
    EXPECT_EQ(probe.work, baseline.work) << to_string(kind);
    EXPECT_EQ(probe.total_ns, baseline.total_ns) << to_string(kind);
    EXPECT_EQ(probe.response_ns, baseline.response_ns) << to_string(kind);
    EXPECT_EQ(probe.bytes_transferred, baseline.bytes_transferred)
        << to_string(kind);
    EXPECT_EQ(probe.messages, baseline.messages) << to_string(kind);
    EXPECT_EQ(probe.result.rows.size(), baseline.result.rows.size())
        << to_string(kind);
    EXPECT_FALSE(session.empty()) << to_string(kind);
    for (const PhaseSpan& span : session.spans()) {
      EXPECT_EQ(span.strategy, to_string(kind));
      EXPECT_LE(span.start_ns, span.end_ns);
    }
  }
}

TEST_F(ObsExecution, SpanMetersSumToTheReportsWork) {
  TraceSession session;
  StrategyOptions options;
  options.trace_session = &session;
  const StrategyReport report =
      execute_strategy(StrategyKind::BL, fed(), query_, options);

  AccessMeter from_spans;
  Bytes bytes = 0;
  for (const PhaseSpan& span : session.spans()) {
    from_spans += span.work;
    bytes += span.bytes;
  }
  EXPECT_EQ(from_spans, report.work);
  EXPECT_EQ(bytes, report.bytes_transferred);
}

TEST_F(ObsExecution, PhaseOrderMatchesThePaper) {
  // CA is O -> I -> P; BL is P -> O -> I. The spans' simulated start times
  // must show exactly that reordering.
  TraceSession ca_session;
  StrategyOptions ca_options;
  ca_options.trace_session = &ca_session;
  (void)execute_strategy(StrategyKind::CA, fed(), query_, ca_options);
  const auto ca_o = ca_session.first_start(Phase::O);
  const auto ca_p = ca_session.first_start(Phase::P);
  ASSERT_TRUE(ca_o && ca_p);
  EXPECT_LT(*ca_o, *ca_p) << "CA ships (O) before it evaluates (P)";

  TraceSession bl_session;
  StrategyOptions bl_options;
  bl_options.trace_session = &bl_session;
  (void)execute_strategy(StrategyKind::BL, fed(), query_, bl_options);
  const auto bl_p = bl_session.first_start(Phase::P);
  const auto bl_o = bl_session.first_start(Phase::O);
  const auto bl_i = bl_session.first_start(Phase::I);
  ASSERT_TRUE(bl_p && bl_o && bl_i);
  EXPECT_LT(*bl_p, *bl_o) << "BL evaluates locally (P) before lookups (O)";
  EXPECT_LT(*bl_o, *bl_i) << "BL integrates (I) last";
}

TEST_F(ObsExecution, StreamSpansCarryTheirQueryIndex) {
  TraceSession session;
  StrategyOptions options;
  options.trace_session = &session;
  std::vector<StreamQuery> stream(2);
  stream[0] = {query_, 0, StrategyKind::BL};
  stream[1] = {query_, 1000, StrategyKind::CA};
  const StreamReport report = run_query_stream(fed(), stream, options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  ASSERT_FALSE(session.empty());

  bool saw_q0_bl = false, saw_q1_ca = false;
  for (const PhaseSpan& span : session.spans()) {
    ASSERT_LT(span.query, 2u);
    if (span.query == 0) {
      EXPECT_EQ(span.strategy, "BL");
      saw_q0_bl = true;
    } else {
      EXPECT_EQ(span.strategy, "CA");
      saw_q1_ca = true;
    }
  }
  EXPECT_TRUE(saw_q0_bl);
  EXPECT_TRUE(saw_q1_ca);
}

TEST_F(ObsExecution, RenderPhaseTreeShowsPhasesAndCounts) {
  EXPECT_EQ(render_phase_tree(TraceSession{}), "(empty trace)\n");

  TraceSession session;
  StrategyOptions options;
  options.trace_session = &session;
  (void)execute_strategy(StrategyKind::BL, fed(), query_, options);
  const std::string tree = render_phase_tree(session);
  for (const char* needle :
       {"strategy BL", "phase P", "phase O", "phase I", "phase transfer",
        "objects ", "B/", "certified="})
    EXPECT_NE(tree.find(needle), std::string::npos) << needle << "\n" << tree;
  // BL's order is P -> O -> I: the tree lists the phases execution-first.
  EXPECT_LT(tree.find("phase P"), tree.find("phase O")) << tree;
  EXPECT_LT(tree.find("phase O"), tree.find("phase I")) << tree;
}

}  // namespace
}  // namespace isomer
