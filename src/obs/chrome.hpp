// Chrome trace_event export (observability layer, DESIGN.md §15).
//
// Renders one checker run's observability streams — trace events
// (lmc-trace/1) and optionally a profile (lmc-prof/2) — as a Chrome
// trace_event JSON document loadable in Perfetto / chrome://tracing:
//  * lanes become threads (tid 0 = the deterministic applier, tid N = pool
//    worker lane N), named via "M" metadata events;
//  * events with a duration become "X" complete events (ts = start in µs),
//    nesting under their round's span; zero-duration events become "i"
//    instants;
//  * rounds become "X" spans on the applier thread named "round N", and
//    each round end is also a "C" progress sample (node states, I+ size);
//  * the profile's summed stats, when given, are one final "C" sample.
// The exporter is pure (streams in, JSON text out); lmc_trace wraps it as
// `lmc_trace export --chrome`.
#pragma once

#include <string>
#include <vector>

#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace lmc::obs {

/// Convert observability streams to a Chrome trace_event JSON document
/// ({"traceEvents":[...]} object format). `prof` may be null.
std::string chrome_trace_json(const std::vector<TraceEvent>& events, const ProfileData* prof);

/// Structural validation of an exported document: parses as JSON, has a
/// "traceEvents" array, and every entry carries the required "ph", "ts"
/// (except metadata events) and "pid" keys. `err` explains a failure.
bool validate_chrome_trace(const std::string& json_text, std::string* err);

}  // namespace lmc::obs
