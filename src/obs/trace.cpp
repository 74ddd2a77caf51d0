#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "obs/json.hpp"

namespace lmc::obs {

namespace {

double steady_now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

std::uint64_t next_sink_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kRunBegin: return "run_begin";
    case EventType::kRunEnd: return "run_end";
    case EventType::kRoundBegin: return "round_begin";
    case EventType::kRoundEnd: return "round_end";
    case EventType::kHandlerRun: return "handler_run";
    case EventType::kHandlerApply: return "handler_apply";
    case EventType::kStateInsert: return "state_insert";
    case EventType::kIplusAppend: return "iplus_append";
    case EventType::kComboSweep: return "combo_sweep";
    case EventType::kSoundnessRun: return "soundness_run";
    case EventType::kSoundnessVerdict: return "soundness_verdict";
    case EventType::kSoundnessPhase: return "soundness_phase";
    case EventType::kDeferralDrain: return "deferral_drain";
    case EventType::kCheckpointSave: return "checkpoint_save";
    case EventType::kOnlinePeriod: return "online_period";
    case EventType::kWorkerError: return "worker_error";
    case EventType::kPorPrune: return "por_prune";
    case EventType::kPorResolve: return "por_resolve";
  }
  return "unknown";
}

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kRun: return "run";
    case Phase::kExplore: return "explore";
    case Phase::kSweep: return "sweep";
    case Phase::kSoundness: return "soundness";
    case Phase::kDrain: return "drain";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kOnline: return "online";
  }
  return "unknown";
}

TraceSink::TraceSink() : t0_(steady_now_s()), uid_(next_sink_uid()) {}

double TraceSink::since_start() const { return steady_now_s() - t0_; }

void TraceSink::record(TraceEvent ev) {
  ev.t = since_start();
  ev.lane = 0;
  events_.push_back(ev);
}

TraceSink::Lane* TraceSink::this_thread_lane() {
  // Owner-only lane lookup. The cache is keyed by the sink's uid (not its
  // address) so a sink destroyed and another allocated at the same address
  // cannot alias, and it holds the Lane* directly so growth of lanes_ by
  // other registering threads never invalidates it (Lane objects are
  // heap-allocated and stable).
  struct Cache {
    std::uint64_t uid = 0;
    Lane* lane = nullptr;
  };
  thread_local Cache cache;
  if (cache.uid == uid_) return cache.lane;
  std::lock_guard<std::mutex> lock(lanes_mu_);
  auto lane = std::make_unique<Lane>();
  lane->id = static_cast<std::uint16_t>(lanes_.size() + 1);
  Lane* raw = lane.get();
  lanes_.push_back(std::move(lane));
  cache = Cache{uid_, raw};
  return raw;
}

void TraceSink::record_worker(TraceEvent ev) {
  ev.t = since_start();
  Lane* lane = this_thread_lane();
  ev.lane = lane->id;
  lane->buf.push_back(ev);
}

void TraceSink::drain_workers() {
  std::vector<TraceEvent> pending;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    for (auto& lane : lanes_) {
      pending.insert(pending.end(), lane->buf.begin(), lane->buf.end());
      lane->buf.clear();
    }
  }
  // seq is the deterministic task/job enumeration index, so after this sort
  // the master stream's identity content is thread-count-invariant.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const TraceEvent& x, const TraceEvent& y) { return x.seq < y.seq; });
  events_.insert(events_.end(), pending.begin(), pending.end());
}

std::size_t TraceSink::undrained() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->buf.size();
  return n;
}

std::size_t TraceSink::lanes() const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  return lanes_.size();
}

void TraceSink::clear() {
  events_.clear();
  std::lock_guard<std::mutex> lock(lanes_mu_);
  for (auto& lane : lanes_) lane->buf.clear();
}

std::string to_jsonl_line(const TraceEvent& ev) {
  std::string s = "{\"schema\":\"lmc-trace/1\",\"ev\":";
  s += json_quote(to_string(ev.type));
  s += ",\"phase\":";
  s += json_quote(to_string(ev.phase));
  s += ",\"round\":" + std::to_string(ev.round);
  if (ev.node != TraceEvent::kNoNode) s += ",\"node\":" + std::to_string(ev.node);
  s += ",\"seq\":" + std::to_string(ev.seq);
  s += ",\"a\":" + std::to_string(ev.a);
  s += ",\"b\":" + std::to_string(ev.b);
  s += ",\"c\":" + std::to_string(ev.c);
  s += ",\"lane\":" + std::to_string(ev.lane);
  s += ",\"t\":" + json_double(ev.t);
  s += ",\"dur\":" + json_double(ev.dur);
  s += "}";
  return s;
}

bool parse_jsonl_line(const std::string& line, TraceEvent& ev) {
  JsonValue v;
  if (!json_parse(line, v) || !v.is_object()) return false;
  const JsonValue* schema = v.get("schema");
  if (schema == nullptr || !schema->is_string() || schema->str != "lmc-trace/1") return false;
  const JsonValue* type = v.get("ev");
  if (type == nullptr || !type->is_string()) return false;

  ev = TraceEvent{};
  if (type->str == "unknown") return false;  // the name of retired ids
  bool type_ok = false;
  for (int t = 0; t <= static_cast<int>(EventType::kPorResolve); ++t) {
    if (type->str == to_string(static_cast<EventType>(t))) {
      ev.type = static_cast<EventType>(t);
      type_ok = true;
      break;
    }
  }
  if (!type_ok) return false;
  if (const JsonValue* f = v.get("phase"); f != nullptr && f->is_string()) {
    for (int p = 0; p <= static_cast<int>(Phase::kOnline); ++p) {
      if (f->str == to_string(static_cast<Phase>(p))) {
        ev.phase = static_cast<Phase>(p);
        break;
      }
    }
  }
  auto u64 = [&](const char* key, std::uint64_t dflt) {
    const JsonValue* f = v.get(key);
    return f != nullptr && f->is_number() ? f->as_u64() : dflt;
  };
  auto dbl = [&](const char* key) {
    const JsonValue* f = v.get(key);
    return f != nullptr && f->is_number() ? f->as_double() : 0.0;
  };
  ev.round = static_cast<std::uint32_t>(u64("round", 0));
  ev.node = static_cast<std::uint32_t>(u64("node", TraceEvent::kNoNode));
  ev.seq = u64("seq", 0);
  ev.a = u64("a", 0);
  ev.b = u64("b", 0);
  ev.c = u64("c", 0);
  ev.lane = static_cast<std::uint16_t>(u64("lane", 0));
  ev.t = dbl("t");
  ev.dur = dbl("dur");
  return true;
}

std::string TraceSink::to_jsonl() const {
  std::string out;
  for (const TraceEvent& ev : events_) {
    out += to_jsonl_line(ev);
    out += '\n';
  }
  return out;
}

void TraceSink::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  const std::string text = to_jsonl();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

bool EventIdentity::operator<(const EventIdentity& o) const {
  return std::tie(type, phase, round, node, seq, a, b, c) <
         std::tie(o.type, o.phase, o.round, o.node, o.seq, o.a, o.b, o.c);
}

EventIdentity identity(const TraceEvent& ev) {
  EventIdentity id;
  id.type = static_cast<std::uint8_t>(ev.type);
  id.phase = static_cast<std::uint8_t>(ev.phase);
  id.round = ev.round;
  id.node = ev.node;
  id.seq = ev.seq;
  id.a = ev.a;
  id.b = ev.b;
  id.c = ev.c;
  return id;
}

std::vector<EventIdentity> identities(const std::vector<TraceEvent>& evs) {
  std::vector<EventIdentity> out;
  out.reserve(evs.size());
  for (const TraceEvent& ev : evs) out.push_back(identity(ev));
  return out;
}

}  // namespace lmc::obs
