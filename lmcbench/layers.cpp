// The traced run: spans recorded around the benchmark's own calls into each
// layer, the Fig. 13 split (explore / system states without soundness /
// full) and per-call probes of the handler funnel, hashing and verify().
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "mc/soundness.hpp"
#include "runtime/hash.hpp"

namespace lmcbench {

using namespace lmc;

std::uint32_t Spans::begin(std::string name) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size());
  s.parent = open_.empty() ? Span::kNoParent : open_.back();
  s.pass = pass_;
  s.name = std::move(name);
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Spans::end(std::uint32_t id) {
  spans_[id].t1 = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> Spans::self_times() const {
  std::vector<double> self(spans_.size());
  for (const Span& s : spans_) self[s.id] = s.t1 - s.t0;
  for (const Span& s : spans_)
    if (s.parent != Span::kNoParent) self[s.parent] -= s.t1 - s.t0;
  std::map<std::string, double> by_name;
  for (const Span& s : spans_) by_name[s.name] += self[s.id];
  return {by_name.begin(), by_name.end()};
}

void Spans::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%u,\"parent\":%lld,\"pass\":%u,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f}\n",
                  s.id, s.parent == Span::kNoParent ? -1LL : static_cast<long long>(s.parent),
                  s.pass, s.name.c_str(), s.t0 - origin, s.t1 - origin);
    f << line;
  }
}

namespace {

/// Accumulates the per-layer numbers of one traced pass.
struct Layers {
  std::vector<double> exec_us, hash_us, verify_us;
  double exec_s = 0.0;
  std::uint64_t state_bytes = 0, states = 0;
  LocalMcStats full;     ///< summed over the units' 1-thread full searches
  LocalMcStats explore;  ///< summed over the units' LMC-explore runs
  double explore_s = 0.0, explore_par_s = 0.0;
  double sweep_s = 0.0, sweep_system_state_s = 0.0;
};

void add(LocalMcStats& into, const LocalMcStats& s) {
  into.transitions += s.transitions;
  into.node_states += s.node_states;
  into.system_states += s.system_states;
  into.invariant_checks += s.invariant_checks;
  into.prelim_violations += s.prelim_violations;
  into.confirmed_violations += s.confirmed_violations;
  into.unsound_violations += s.unsound_violations;
  into.soundness_calls += s.soundness_calls;
  into.feasibility_skips += s.feasibility_skips;
  into.soundness_deferred += s.soundness_deferred;
  into.deferred_processed += s.deferred_processed;
  into.deferred_dropped += s.deferred_dropped;
  into.sequences_checked += s.sequences_checked;
  into.combo_truncated += s.combo_truncated;
  into.dup_msgs_suppressed += s.dup_msgs_suppressed;
  into.history_skips += s.history_skips;
  into.messages_in_iplus += s.messages_in_iplus;
  into.stored_bytes += s.stored_bytes;
  into.soundness_s += s.soundness_s;
  into.soundness_wall_s += s.soundness_wall_s;
  into.system_state_s += s.system_state_s;
  into.deferred_s += s.deferred_s;
}

// The handler funnel: re-execute every recorded edge (preds and self-loops)
// through exec_message / exec_internal, and hash every stored state.
void probe_runtime(const SystemConfig& cfg, const LocalModelChecker& mc, Layers& L, Spans& spans) {
  const LocalStore& store = mc.store();
  {
    SpanScope s(&spans, "runtime.exec");
    for (NodeId n = 0; n < store.num_nodes(); ++n) {
      for (std::uint32_t i = 0; i < store.size(n); ++i) {
        const NodeStateRec& rec = store.rec(n, i);
        for (const auto* edges : {&rec.preds, &rec.self_loops}) {
          for (const Pred& p : *edges) {
            auto ev = mc.events().find(p.ev_hash);
            if (ev == mc.events().end()) continue;
            const Blob& src = store.rec(n, p.pred_idx).blob;
            const double t0 = now_s();
            [[maybe_unused]] ExecResult r = p.is_message
                                                ? exec_message(cfg, n, src, ev->second.msg)
                                                : exec_internal(cfg, n, src, ev->second.ev);
            const double dt = now_s() - t0;
            L.exec_s += dt;
            L.exec_us.push_back(dt * 1e6);
          }
        }
      }
    }
  }
  SpanScope s(&spans, "runtime.hash_blob");
  Hash64 sink = 0;
  for (NodeId n = 0; n < store.num_nodes(); ++n) {
    for (std::uint32_t i = 0; i < store.size(n); ++i) {
      const Blob& b = store.rec(n, i).blob;
      const double t0 = now_s();
      sink ^= hash_blob(b);
      L.hash_us.push_back((now_s() - t0) * 1e6);
      L.state_bytes += b.size();
      ++L.states;
    }
  }
  if (sink == 42) std::fputc(' ', stderr);  // keep the hashes observable
}

// SoundnessVerifier::verify re-timed on every confirmed combination.
void probe_soundness(const LocalModelChecker& mc, const SoundnessOptions& opt, Layers& L,
                     Spans& spans) {
  SpanScope s(&spans, "soundness.verify");
  SoundnessVerifier v(mc.store(), mc.initial_in_flight_hashes(), opt);
  for (const LocalViolation& viol : mc.violations()) {
    if (!viol.confirmed) continue;
    const double t0 = now_s();
    const SoundnessResult r = v.verify(viol.combo);
    L.verify_us.push_back((now_s() - t0) * 1e6);
    if (!r.sound) throw std::runtime_error("a confirmed combination re-verified unsound");
  }
}

}  // namespace

std::vector<Metric> traced_pass(const Inputs& in, unsigned par, Gate& gate, Spans& spans,
                                double* check_s_traced) {
  Layers L;
  ReplayTally replay;
  SpanScope pass(&spans, "pass");
  const PassTimes t = run_pass(in, par, gate, &spans, &replay,
                               [&](std::size_t i, const LocalModelChecker& mc) {
                                 const Unit& u = in.units[i];
                                 add(L.full, mc.stats());
                                 probe_runtime(*u.cfg, mc, L, spans);
                                 probe_soundness(mc, u.opt.soundness, L, spans);
                               });
  *check_s_traced = t.check_s;

  // Fig. 13 split: explore-only runs at 1 and par threads, and a 1-thread run
  // with system states but no soundness. Soundness time is the full runs' own
  // soundness_wall_s. A unit that never builds system states IS its explore run.
  for (std::size_t i = 0; i < in.units.size(); ++i) {
    const Unit& u = in.units[i];
    const RunResult ex = run_unit(u, 1, false, Mode::kExplore, false, &spans, "explore.run");
    const RunResult ex_par =
        run_unit(u, par, false, Mode::kExplore, false, &spans, "explore.run_par");
    add(L.explore, ex.stats);
    L.explore_s += ex.wall_s;
    L.explore_par_s += ex_par.wall_s;
    if (!u.opt.enable_system_states) continue;
    const RunResult sw = run_unit(u, 1, false, Mode::kSweep, false, &spans, "sweep.run");
    L.sweep_s += sw.wall_s - ex.wall_s;
    L.sweep_system_state_s += sw.stats.system_state_s;
  }

  const LocalMcStats& F = L.full;
  const LocalMcStats& E = L.explore;
  const double exec_mean_s =
      L.exec_us.empty() ? 0.0 : L.exec_s / static_cast<double>(L.exec_us.size());
  std::vector<Metric> m = {
      {"runtime.exec_calls", "count", static_cast<double>(L.exec_us.size())},
      {"runtime.exec_s", "s", L.exec_s},
      {"runtime.exec_us_p50", "us", percentile(L.exec_us, 0.50)},
      {"runtime.exec_us_p99", "us", percentile(L.exec_us, 0.99)},
      {"runtime.state_bytes_mean", "B",
       L.states == 0 ? 0.0 : static_cast<double>(L.state_bytes) / static_cast<double>(L.states)},
      {"runtime.hash_us_p50", "us", percentile(L.hash_us, 0.50)},
      {"explore.wall_s", "s", L.explore_s},
      {"explore.wall_s_par", "s", L.explore_par_s},
      {"explore.applier_s", "s", L.explore_s - static_cast<double>(E.transitions) * exec_mean_s},
      {"explore.transitions", "count", static_cast<double>(E.transitions)},
      {"explore.node_states", "count", static_cast<double>(E.node_states)},
      {"explore.iplus_msgs", "count", static_cast<double>(E.messages_in_iplus)},
      {"explore.dup_suppressed", "count", static_cast<double>(E.dup_msgs_suppressed)},
      {"explore.history_skips", "count", static_cast<double>(E.history_skips)},
      {"explore.stored_mb", "MB", static_cast<double>(E.stored_bytes) / 1e6},
      {"sweep.wall_s", "s", L.sweep_s},
      {"sweep.system_state_s", "s", L.sweep_system_state_s},
      {"sweep.system_states", "count", static_cast<double>(F.system_states)},
      {"sweep.invariant_checks", "count", static_cast<double>(F.invariant_checks)},
      {"sweep.prelims", "count", static_cast<double>(F.prelim_violations)},
      {"sweep.combo_truncated", "count", static_cast<double>(F.combo_truncated)},
      {"soundness.wall_s", "s", F.soundness_wall_s},
      {"soundness.wall_s_par", "s", t.soundness_wall_s_par},
      {"soundness.quick_s", "s", F.soundness_wall_s - F.deferred_s},
      {"soundness.drain_s", "s", F.deferred_s},
      {"soundness.agg_s", "s", F.soundness_s},
      {"soundness.calls", "count", static_cast<double>(F.soundness_calls)},
      {"soundness.expansions", "count", static_cast<double>(F.sequences_checked)},
      {"soundness.feasibility_skips", "count", static_cast<double>(F.feasibility_skips)},
      {"soundness.deferred", "count", static_cast<double>(F.soundness_deferred)},
      {"soundness.deferred_processed", "count", static_cast<double>(F.deferred_processed)},
      {"soundness.deferred_dropped", "count", static_cast<double>(F.deferred_dropped)},
      {"soundness.confirmed", "count", static_cast<double>(F.confirmed_violations)},
      {"soundness.unsound", "count", static_cast<double>(F.unsound_violations)},
      {"soundness.confirm_ratio", "ratio",
       F.soundness_calls == 0 ? 0.0
                              : static_cast<double>(F.confirmed_violations) /
                                    static_cast<double>(F.soundness_calls)},
      {"soundness.verify_us_p50", "us", percentile(L.verify_us, 0.50)},
      {"soundness.verify_us_p99", "us", percentile(L.verify_us, 0.99)},
      {"replay.calls", "count", static_cast<double>(replay.calls)},
      {"replay.s", "s", replay.secs},
      {"replay.failures", "count", static_cast<double>(replay.failures)},
      {"online.live_s", "s", in.live_s},
      {"online.periods", "count", static_cast<double>(in.periods)},
      {"online.period_check_s_max", "s",
       in.periods == 0 ? 0.0 : *std::max_element(t.unit_s.begin(), t.unit_s.end())},
      {"dsl.load_s", "s", in.dsl_load_s},
  };
  return m;
}

}  // namespace lmcbench
