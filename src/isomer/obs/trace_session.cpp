#include "isomer/obs/trace_session.hpp"

#include <algorithm>

namespace isomer {

std::string_view to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::Setup:
      return "setup";
    case Phase::O:
      return "O";
    case Phase::I:
      return "I";
    case Phase::P:
      return "P";
    case Phase::Transfer:
      return "transfer";
    case Phase::Fault:
      return "fault";
    case Phase::Plan:
      return "plan";
    case Phase::Cert:
      return "cert";
    case Phase::Serve:
      return "serve";
    case Phase::Impute:
      return "impute";
  }
  return "setup";
}

namespace obs {

std::vector<Phase> TraceSession::phase_order(
    std::optional<std::string_view> site) const {
  std::vector<const PhaseSpan*> flow;
  for (const PhaseSpan& span : spans_)
    if ((span.phase == Phase::O || span.phase == Phase::I ||
         span.phase == Phase::P) &&
        (!site || span.site == *site))
      flow.push_back(&span);
  std::stable_sort(flow.begin(), flow.end(),
                   [](const PhaseSpan* a, const PhaseSpan* b) {
                     return a->start_ns < b->start_ns;
                   });
  std::vector<Phase> order;
  for (const PhaseSpan* span : flow)
    if (std::find(order.begin(), order.end(), span->phase) == order.end())
      order.push_back(span->phase);
  return order;
}

std::optional<SimTime> TraceSession::first_start(Phase phase) const {
  std::optional<SimTime> best;
  for (const PhaseSpan& span : spans_)
    if (span.phase == phase && (!best || span.start_ns < *best))
      best = span.start_ns;
  return best;
}

std::optional<SimTime> TraceSession::last_end(Phase phase) const {
  std::optional<SimTime> best;
  for (const PhaseSpan& span : spans_)
    if (span.phase == phase && (!best || span.end_ns > *best))
      best = span.end_ns;
  return best;
}

}  // namespace obs
}  // namespace isomer
