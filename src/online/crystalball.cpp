#include "online/crystalball.hpp"

#include "obs/trace.hpp"

namespace lmc {

CrystalBallResult CrystalBall::run() {
  CrystalBallResult out;
  for (double t = opt_.period; t <= opt_.max_live_time + 1e-9; t += opt_.period) {
    live_.run_until(t);
    Snapshot snap = live_.snapshot();
    LocalModelChecker mc(cfg_, invariant_, opt_.mc);
    mc.run(snap.nodes, snap.in_flight);
    const int index = out.runs++;
    out.last_stats = mc.stats();
    const LocalViolation* v = mc.first_confirmed();
    if (opt_.mc.trace != nullptr) {
      obs::TraceEvent ev;
      ev.type = obs::EventType::kOnlinePeriod;
      ev.phase = obs::Phase::kOnline;
      ev.a = static_cast<std::uint64_t>(index);
      ev.b = mc.stats().transitions;
      ev.c = v != nullptr ? 1 : 0;
      ev.dur = mc.stats().elapsed_s;
      opt_.mc.trace->record(ev);
    }
    if (opt_.on_period) {
      CrystalBallPeriod p;
      p.index = index;
      p.live_time = snap.time;
      p.found = v != nullptr;
      p.stats = mc.stats();
      opt_.on_period(p);
    }
    if (v != nullptr) {
      out.found = true;
      out.live_time = snap.time;
      out.checker_elapsed_s = mc.stats().elapsed_s;
      out.violation = *v;
      out.events = mc.events();
      out.snapshot = std::move(snap);
      return out;
    }
  }
  out.live_time = live_.now();
  return out;
}

}  // namespace lmc
