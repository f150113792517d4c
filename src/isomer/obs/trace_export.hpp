// Trace export.
//
// A TraceSession records what each site did and when; this module renders
// a session for humans and tools:
//
//  * to_chrome_json(): the Chrome trace-event format ("Trace Event Format",
//    complete events, microsecond timestamps) — open in chrome://tracing or
//    https://ui.perfetto.dev to see the per-site timelines of Fig. 8 live;
//  * to_gantt(): a fixed-width ASCII Gantt chart, one row per site, one
//    glyph per phase (O/I/P, '-' for transfers), for terminals and logs.
#pragma once

#include <string>

#include "isomer/obs/trace_session.hpp"

namespace isomer::obs {

/// Serializes the session as a Chrome trace-event JSON array. Each span
/// becomes a complete ("ph":"X") event; sites map to thread names so the
/// viewer shows one lane per site.
[[nodiscard]] std::string to_chrome_json(const TraceSession& session);

/// Renders an ASCII Gantt chart, `width` characters across the full
/// makespan. Overlapping spans on one site print the later phase glyph.
[[nodiscard]] std::string to_gantt(const TraceSession& session,
                                   std::size_t width = 72);

}  // namespace isomer::obs
