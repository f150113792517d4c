// TraceSession — per-execution span recorder.
//
// A session collects the PhaseSpans of one or more strategy executions (a
// single execute_strategy call, or every query of a run_query_stream) and is
// the only record of what an execution did and when: the Fig. 8 views below,
// the Chrome/Gantt export (obs/trace_export.hpp) and the JSONL trace files
// (obs/jsonl.hpp) all read it. It is attached through
// StrategyOptions::trace_session; a null pointer there is the disabled
// state, so the instrumented hot paths pay exactly one branch, build no
// span strings and never touch an AccessMeter when tracing is off (asserted
// by bench_micro and test_obs).
//
// Sessions are NOT thread-safe: the discrete-event simulator is single
// threaded, so one session per concurrently running trial is the rule (the
// bench harness gives every Monte-Carlo trial its own session and serializes
// them in trial order, keeping --trace output --jobs-invariant).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "isomer/obs/span.hpp"

namespace isomer::obs {

class TraceSession {
 public:
  void record(PhaseSpan span) { spans_.push_back(std::move(span)); }

  [[nodiscard]] const std::vector<PhaseSpan>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  void clear() { spans_.clear(); }

  /// Sums a field over the spans of one phase (all strategies/queries).
  template <typename Fn>
  [[nodiscard]] std::uint64_t sum_over(Phase phase, Fn field) const {
    std::uint64_t total = 0;
    for (const PhaseSpan& span : spans_)
      if (span.phase == phase) total += field(span);
    return total;
  }

  /// The O/I/P phases in order of first start time, duplicates collapsed —
  /// the strategy's executing flow in Fig. 8's terms. Transfers and markers
  /// are ignored. Optionally restricted to one site.
  [[nodiscard]] std::vector<Phase> phase_order(
      std::optional<std::string_view> site = std::nullopt) const;

  /// First start time of a phase (nullopt when the phase never ran).
  [[nodiscard]] std::optional<SimTime> first_start(Phase phase) const;
  /// Last end time of a phase.
  [[nodiscard]] std::optional<SimTime> last_end(Phase phase) const;

 private:
  std::vector<PhaseSpan> spans_;
};

}  // namespace isomer::obs
