#include "isomer/obs/trace_export.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "isomer/obs/jsonl.hpp"

namespace isomer::obs {

namespace {

char glyph(Phase phase) {
  switch (phase) {
    case Phase::O:
      return 'O';
    case Phase::I:
      return 'I';
    case Phase::P:
      return 'P';
    case Phase::Transfer:
      return '-';
    case Phase::Setup:
      return '.';
    case Phase::Fault:
      return '!';
    case Phase::Plan:
      return '@';
    case Phase::Cert:
      return '#';
    case Phase::Serve:
      return '~';
    case Phase::Impute:
      return '%';
  }
  return '?';
}

}  // namespace

std::string to_chrome_json(const TraceSession& session) {
  // Stable lane ids per site, in order of first appearance.
  std::map<std::string, int> lanes;
  for (const PhaseSpan& span : session.spans())
    lanes.try_emplace(span.site, static_cast<int>(lanes.size()) + 1);

  std::ostringstream out;
  out << "[";
  const char* sep = "\n";
  // Thread-name metadata so viewers label the lanes.
  for (const auto& [site, lane] : lanes) {
    out << sep
        << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << lane
        << R"(,"args":{"name":")" << json_escape(site) << "\"}}";
    sep = ",\n";
  }
  for (const PhaseSpan& span : session.spans()) {
    out << sep << R"({"name":")" << json_escape(span.step)
        << R"(","cat":")" << to_string(span.phase) << R"(","ph":"X","pid":1)"
        << R"(,"tid":)" << lanes.at(span.site) << R"(,"ts":)"
        << static_cast<double>(span.start_ns) / 1000.0 << R"(,"dur":)"
        << static_cast<double>(span.end_ns - span.start_ns) / 1000.0 << "}";
    sep = ",\n";
  }
  out << "\n]\n";
  return out.str();
}

std::string to_gantt(const TraceSession& session, std::size_t width) {
  if (session.empty()) return "(empty trace)\n";
  SimTime makespan = 0;
  for (const PhaseSpan& span : session.spans())
    makespan = std::max(makespan, span.end_ns);
  if (makespan == 0) makespan = 1;

  std::map<std::string, std::string> rows;
  std::vector<std::string> order;
  for (const PhaseSpan& span : session.spans()) {
    auto [it, inserted] = rows.try_emplace(span.site, std::string(width, ' '));
    if (inserted) order.push_back(span.site);
    const auto cell = [&](SimTime t) {
      return std::min(width - 1, static_cast<std::size_t>(
                                     static_cast<double>(t) /
                                     static_cast<double>(makespan) *
                                     static_cast<double>(width)));
    };
    const std::size_t from = cell(span.start_ns);
    const std::size_t to = std::max(from, cell(span.end_ns));
    for (std::size_t i = from; i <= to; ++i) it->second[i] = glyph(span.phase);
  }

  std::size_t label = 0;
  for (const std::string& site : order) label = std::max(label, site.size());
  std::ostringstream out;
  for (const std::string& site : order) {
    out << site << std::string(label - site.size(), ' ') << " |"
        << rows.at(site) << "|\n";
  }
  out << std::string(label, ' ') << " 0" << std::string(width - 1, ' ')
      << to_milliseconds(makespan) << "ms\n";
  return out.str();
}

}  // namespace isomer::obs
