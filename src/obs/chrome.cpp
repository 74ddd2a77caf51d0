#include "obs/chrome.hpp"

#include <algorithm>
#include <cstdint>
#include <set>

#include "obs/json.hpp"

namespace lmc::obs {

namespace {

/// Microseconds field: Chrome's ts/dur unit. Clamped at zero — an "X" start
/// computed as t - dur can go fractionally negative through float error.
std::string usec(double seconds) {
  return json_double(seconds < 0.0 ? 0.0 : seconds * 1e6);
}

void append_event(std::string& out, bool& first, const std::string& body) {
  if (!first) out += ",\n";
  first = false;
  out += body;
}

std::string meta_thread(std::uint32_t tid, const std::string& name) {
  std::string s = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
  s += std::to_string(tid);
  s += ",\"args\":{\"name\":" + json_quote(name) + "}}";
  return s;
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events, const ProfileData* prof) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;

  // Process + thread metadata: one row per lane seen in the stream.
  append_event(out, first,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
               "\"args\":{\"name\":\"lmc checker\"}}");
  std::set<std::uint16_t> lanes;
  for (const TraceEvent& ev : events) lanes.insert(ev.lane);
  for (std::uint16_t lane : lanes) {
    const std::string name =
        lane == 0 ? std::string("applier") : "worker-" + std::to_string(lane);
    append_event(out, first, meta_thread(lane, name));
  }

  double last_t = 0.0;
  for (const TraceEvent& ev : events) {
    if (ev.t > last_t) last_t = ev.t;
    const bool is_round_span = ev.type == EventType::kRoundEnd;
    std::string name = to_string(ev.type);
    if (is_round_span) name = "round " + std::to_string(ev.round);
    std::string s = "{\"name\":" + json_quote(name);
    s += ",\"cat\":" + json_quote(to_string(ev.phase));
    if (ev.dur > 0.0) {
      // Complete event: t was recorded at the END of the operation.
      s += ",\"ph\":\"X\",\"ts\":" + usec(ev.t - ev.dur);
      s += ",\"dur\":" + usec(ev.dur);
    } else {
      s += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + usec(ev.t);
    }
    s += ",\"pid\":1,\"tid\":" + std::to_string(ev.lane);
    s += ",\"args\":{\"round\":" + std::to_string(ev.round);
    if (ev.node != TraceEvent::kNoNode) s += ",\"node\":" + std::to_string(ev.node);
    s += ",\"seq\":" + std::to_string(ev.seq);
    s += ",\"a\":" + std::to_string(ev.a);
    s += ",\"b\":" + std::to_string(ev.b);
    s += ",\"c\":" + std::to_string(ev.c);
    s += "}}";
    append_event(out, first, s);
    if (is_round_span) {
      // Progress track: the round's end time, node states and I+ size.
      std::string p = "{\"ph\":\"C\",\"name\":\"progress\",\"pid\":1,\"tid\":0";
      p += ",\"ts\":" + usec(ev.t);
      p += ",\"args\":{\"states\":" + std::to_string(ev.b);
      p += ",\"iplus\":" + std::to_string(ev.c);
      p += "}}";
      append_event(out, first, p);
    }
  }

  if (prof != nullptr) {
    // The profile has no timestamps of its own: emit its summed stats as one
    // final "C" sample so the totals show up as tracks.
    std::string s = "{\"ph\":\"C\",\"name\":\"profile\",\"pid\":1,\"tid\":0";
    s += ",\"ts\":" + usec(last_t);
    s += ",\"args\":{";
    bool first_arg = true;
    for (const auto& [name, value] : stat_json_fields(prof->stats)) {
      if (!first_arg) s += ',';
      first_arg = false;
      s += json_quote(name) + ':' + value;
    }
    s += "}}";
    append_event(out, first, s);
  }

  out += "\n]}\n";
  return out;
}

bool validate_chrome_trace(const std::string& json_text, std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  JsonValue v;
  std::string perr;
  if (!json_parse(json_text, v, &perr)) return fail("not valid JSON: " + perr);
  if (!v.is_object()) return fail("top level is not an object");
  const JsonValue* evs = v.get("traceEvents");
  if (evs == nullptr || evs->kind != JsonValue::Kind::kArray)
    return fail("missing \"traceEvents\" array");
  if (evs->items.empty()) return fail("\"traceEvents\" is empty");
  for (std::size_t i = 0; i < evs->items.size(); ++i) {
    const JsonValue& e = evs->items[i];
    const std::string at = " (event " + std::to_string(i) + ")";
    if (!e.is_object()) return fail("trace event is not an object" + at);
    const JsonValue* ph = e.get("ph");
    if (ph == nullptr || !ph->is_string() || ph->str.empty())
      return fail("trace event missing \"ph\"" + at);
    const JsonValue* pid = e.get("pid");
    if (pid == nullptr || !pid->is_number())
      return fail("trace event missing \"pid\"" + at);
    if (ph->str != "M") {  // metadata events carry no timestamp
      const JsonValue* ts = e.get("ts");
      if (ts == nullptr || !ts->is_number())
        return fail("trace event missing \"ts\"" + at);
    }
  }
  return true;
}

}  // namespace lmc::obs
