#include "online/crystalball.hpp"

#include "obs/trace.hpp"
#include "persist/exec_cache.hpp"

namespace lmc {

CrystalBallResult CrystalBall::run() { return opt_.warm_start ? run_warm() : run_cold(); }

CrystalBallResult CrystalBall::run_cold() { return run_periods(nullptr); }

// Warm start: every period's exploration is IDENTICAL to a cold restart — a
// fresh checker searches exactly the current snapshot's closure with fresh
// depths — but all periods share one transition cache, so any handler
// execution an earlier period already performed is replayed from the cache
// instead of re-run. Same bugs found at the same periods; strictly fewer
// handler executions whenever consecutive snapshots' closures overlap
// (bench/bench_warm_online.cpp measures the savings). Snapshots are never
// merged into one persistent checker: that explores the closure of their
// union, a multiple of the per-snapshot work (persist/exec_cache.hpp).
CrystalBallResult CrystalBall::run_warm() {
  ExecCache cache;
  return run_periods(&cache);
}

CrystalBallResult CrystalBall::run_periods(ExecCache* cache) {
  CrystalBallResult out;
  int index = 0;
  for (double t = opt_.period; t <= opt_.max_live_time + 1e-9; t += opt_.period) {
    live_.run_until(t);
    Snapshot snap = live_.snapshot();
    LocalMcOptions mc_opt = opt_.mc;
    mc_opt.exec_cache = cache;
    LocalModelChecker mc(cfg_, invariant_, mc_opt);
    mc.run(snap.nodes, snap.in_flight);
    ++out.runs;
    out.last_stats = mc.stats();
    out.total_transitions += mc.stats().transitions;
    out.total_cache_hits += mc.stats().warm_pairs_skipped;
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
      p.transitions = mc.stats().transitions;
      p.checker_s = mc.stats().elapsed_s;
      p.stats = mc.stats();
      opt_.on_period(p);
    }
    ++index;
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
