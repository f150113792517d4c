// Trace export: Chrome trace-event JSON and the ASCII Gantt chart, both
// rendered from a TraceSession's phase spans.
//
// tests/goldens/trace_export.golden pins both exports of paper Q1 under
// every strategy byte for byte. It was captured from the per-step trace the
// executors recorded before phase spans became the only record, so it also
// proves that the spans carry every site, step, phase and interval that
// record did.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "isomer/core/strategy.hpp"
#include "isomer/obs/trace_export.hpp"
#include "isomer/workload/paper_example.hpp"

#ifndef ISOMER_TRACE_EXPORT_GOLDEN_FILE
#define ISOMER_TRACE_EXPORT_GOLDEN_FILE "trace_export.golden"
#endif

namespace isomer {
namespace {

using obs::TraceSession;

void record(TraceSession& session, std::string site, std::string step,
            Phase phase, SimTime start, SimTime end) {
  obs::PhaseSpan span;
  span.site = std::move(site);
  span.step = std::move(step);
  span.phase = phase;
  span.start_ns = start;
  span.end_ns = end;
  session.record(std::move(span));
}

TraceSession sample_session() {
  TraceSession session;
  record(session, "DB1", "eval", Phase::P, 0, 10);
  record(session, "DB1->global", "rows", Phase::Transfer, 10, 14);
  record(session, "global", "certify \"q\"", Phase::I, 14, 20);
  return session;
}

TraceSession run_q1(StrategyKind kind) {
  const paper::UniversityExample example = paper::make_university();
  TraceSession session;
  StrategyOptions options;
  options.trace_session = &session;
  (void)execute_strategy(kind, *example.federation, paper::q1(), options);
  return session;
}

TEST(TraceExport, ChromeJsonShape) {
  const std::string json = to_chrome_json(sample_session());
  EXPECT_EQ(json.front(), '[');
  // Thread-name metadata for every site lane.
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"eval")"), std::string::npos);
  // Complete events with microsecond timestamps: 14 us start, 6 us dur.
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":0.014)"), std::string::npos);
  EXPECT_NE(json.find(R"("dur":0.006)"), std::string::npos);
  // Quotes in step names are escaped.
  EXPECT_NE(json.find(R"(certify \"q\")"), std::string::npos);
}

TEST(TraceExport, ChromeJsonIsWellBracketed) {
  const std::string json = to_chrome_json(sample_session());
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, GanttRowsPerSite) {
  const std::string chart = to_gantt(sample_session(), 40);
  // One row per site, phases rendered with their glyphs.
  EXPECT_NE(chart.find("DB1"), std::string::npos);
  EXPECT_NE(chart.find("global"), std::string::npos);
  EXPECT_NE(chart.find('P'), std::string::npos);
  EXPECT_NE(chart.find('I'), std::string::npos);
  EXPECT_NE(chart.find('-'), std::string::npos);
}

TEST(TraceExport, GanttEmptyTrace) {
  EXPECT_EQ(to_gantt(TraceSession{}), "(empty trace)\n");
}

TEST(TraceExport, ImputeSpansHaveTheirOwnGlyph) {
  TraceSession session;
  record(session, "DB1", "eval", Phase::P, 0, 10);
  record(session, "global", "im.certify imputed=2 declined=0", Phase::Impute,
         10, 20);
  const std::string chart = to_gantt(session, 20);
  EXPECT_NE(chart.find("global |          %%%%%%%%%%|"), std::string::npos)
      << chart;
  EXPECT_EQ(chart.find('?'), std::string::npos) << chart;
}

TEST(TraceExport, RealStrategyTraceExports) {
  for (const StrategyKind kind : kPaperStrategies) {
    const TraceSession session = run_q1(kind);
    const std::string json = to_chrome_json(session);
    EXPECT_GT(json.size(), 100u) << to_string(kind);
    const std::string chart = to_gantt(session);
    EXPECT_NE(chart.find("global"), std::string::npos) << to_string(kind);
  }
}

TEST(TraceExport, GanttOrderReflectsPhaseOrder) {
  // In a BL trace the P glyphs at component sites precede the global I.
  const std::string chart = to_gantt(run_q1(StrategyKind::BL), 60);
  std::size_t first_p = std::string::npos;
  std::size_t global_i = std::string::npos;
  std::istringstream in(chart);
  std::string line;
  while (std::getline(in, line)) {
    first_p = std::min(first_p, line.find('P'));
    if (line.rfind("global ", 0) == 0)  // the site row, not a transfer lane
      global_i = line.find('I');
  }
  ASSERT_NE(first_p, std::string::npos);
  ASSERT_NE(global_i, std::string::npos);
  EXPECT_LT(first_p, global_i) << chart;
}

TEST(TraceExport, PaperQ1ExportsMatchGolden) {
  std::ifstream in(ISOMER_TRACE_EXPORT_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "cannot open golden file " << ISOMER_TRACE_EXPORT_GOLDEN_FILE;
  std::ostringstream golden;
  golden << in.rdbuf();

  std::string exported;
  for (const StrategyKind kind : kAllStrategies) {
    const TraceSession session = run_q1(kind);
    const std::string name(to_string(kind));
    exported += "== " + name + " chrome\n" + to_chrome_json(session);
    exported += "== " + name + " gantt\n" + to_gantt(session, 72);
  }
  EXPECT_EQ(exported, golden.str());
}

}  // namespace
}  // namespace isomer
