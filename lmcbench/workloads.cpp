// The four workloads, the checker runs and the verdict gate.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "dfuzz/oracle.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/replay.hpp"
#include "online/live_runner.hpp"
#include "protocols/paxos.hpp"
#include "runtime/hash.hpp"

namespace lmcbench {

using namespace lmc;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

namespace {

std::shared_ptr<const SystemConfig> paxos_cfg(std::set<NodeId> proposers,
                                               std::uint32_t max_proposals, bool bug,
                                               bool fresh_index) {
  paxos::DriverConfig d;
  d.proposers = std::move(proposers);
  d.max_proposals = max_proposals;
  d.allow_fresh_index = fresh_index;
  return std::make_shared<SystemConfig>(paxos::make_config(3, paxos::CoreOptions{0, bug}, d));
}

// paxos-explore: §5.2 two-proposer correct Paxos from its initial states in
// LMC-explore mode, exhaustive. (Reduced: the §5.1 one-proposal system.)
Inputs make_explore(bool reduced, Spans* spans) {
  SpanScope s(spans, "setup.paxos_config");
  Unit u;
  u.name = reduced ? "paxos-1p" : "paxos-2p";
  u.cfg = paxos_cfg(reduced ? std::set<NodeId>{0} : std::set<NodeId>{0, 1}, 1, false, false);
  u.inv = paxos::make_agreement_invariant();
  u.nodes = initial_states(*u.cfg);
  u.opt.enable_system_states = false;
  u.opt.stop_on_confirmed = false;
  u.pin = reduced ? Pin{1664, 243, 0, 0, 0} : Pin{472756, 29627, 0, 0, 0};
  Inputs in;
  in.units.push_back(std::move(u));
  return in;
}

// paxos-online: CrystalBall-style periods of correct Paxos. The live system
// (3 proposers, 30% drops) runs with a pinned live seed; every period
// snapshot is checked at depth 14 with LMC-OPT and a fixed transition cap.
Inputs make_online(bool reduced, Spans* spans) {
  constexpr std::uint64_t kLiveSeed = 1;
  const double period = 30.0;
  const int periods = reduced ? 2 : 4;
  const std::uint64_t cap = reduced ? 5000 : 30000;
  auto live_cfg = paxos_cfg({0, 1, 2}, 3, false, true);
  auto mc_cfg = paxos_cfg({0, 1, 2}, 4, false, false);
  std::shared_ptr<const Invariant> inv = paxos::make_agreement_invariant();

  LiveOptions lo;
  lo.seed = kLiveSeed;
  lo.transport.drop_prob = 0.3;
  lo.app_min = 0.0;
  lo.app_max = 60.0;
  LiveRunner live(*live_cfg, lo, first_enabled_driver());
  Inputs in;
  for (int p = 1; p <= periods; ++p) {
    const double t0 = now_s();
    {
      SpanScope s(spans, "online.live_run_until");
      live.run_until(period * p);
    }
    in.live_s += now_s() - t0;
    Snapshot snap = live.snapshot();
    Unit u;
    u.name = "period-" + std::to_string(p);
    u.cfg = mc_cfg;
    u.inv = inv;
    u.nodes = std::move(snap.nodes);
    u.in_flight = std::move(snap.in_flight);
    u.opt.max_total_depth = 14;
    u.opt.use_projection = true;
    u.opt.max_transitions = cap;
    u.opt.stop_on_confirmed = false;
    // Correct Paxos: the OPT sweep builds no system state, nothing to verify.
    u.pin.transitions = static_cast<std::int64_t>(cap);
    u.pin.system_states = 0;
    u.pin.soundness_calls = 0;
    u.pin.confirmed = 0;
    in.units.push_back(std::move(u));
  }
  in.periods = periods;
  return in;
}

// The §5.5 live state: node0 proposed and learned v1, node1 accepted it, the
// other Learn messages were dropped (the bench_parallel_combos input).
std::vector<Blob> wids_live_state(const SystemConfig& cfg) {
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  auto absorb = [&](NodeId n, ExecResult r) {
    nodes[n] = std::move(r.state);
    for (Message& out : r.sent) flight.push_back(std::move(out));
  };
  auto fire = [&](NodeId n) {
    std::vector<InternalEvent> evs = internal_events_of(cfg, n, nodes[n]);
    if (evs.empty()) throw std::runtime_error("wids live state: no enabled event");
    absorb(n, exec_internal(cfg, n, nodes[n], evs[0]));
  };
  auto deliver = [&](NodeId dst, std::uint32_t type) {
    auto it = std::find_if(flight.begin(), flight.end(),
                           [&](const Message& m) { return m.dst == dst && m.type == type; });
    if (it == flight.end()) throw std::runtime_error("wids live state: message not in flight");
    Message m = *it;
    flight.erase(it);
    absorb(dst, exec_message(cfg, dst, nodes[dst], m));
  };
  for (NodeId n = 0; n < 3; ++n) fire(n);
  fire(0);
  for (NodeId n = 0; n < 3; ++n) deliver(n, paxos::kPrepare);
  for (int i = 0; i < 3; ++i) deliver(0, paxos::kPrepareResponse);
  deliver(0, paxos::kAccept);
  deliver(1, paxos::kAccept);
  deliver(0, paxos::kLearn);
  deliver(0, paxos::kLearn);
  return nodes;
}

// paxos-wids: §5.5 buggy Paxos from the live state, depth 18, LMC-OPT, with
// chains bounded at 5 events per node so that one full search takes 1.5–2 s
// instead of 5–7 s and a run holds enough passes for a steady fastest run.
// (Reduced: chains bounded at 3.)
Inputs make_wids(bool reduced, Spans* spans) {
  SpanScope s(spans, "setup.wids_live_state");
  Unit u;
  u.name = reduced ? "wids-chain3" : "wids-chain5";
  u.cfg = paxos_cfg({0, 1}, 1, true, false);
  u.inv = paxos::make_agreement_invariant();
  u.nodes = wids_live_state(*u.cfg);
  u.opt.max_total_depth = 18;
  u.opt.max_chain_depth = reduced ? 3 : 5;
  u.opt.use_projection = true;
  u.opt.stop_on_confirmed = false;
  u.pin = reduced ? Pin{1168, 247, 2678, 1068, 4} : Pin{4828, 692, 18040, 4272, 48};
  u.buggy = true;
  Inputs in;
  in.units.push_back(std::move(u));
  return in;
}

// zoo-buggy: the four seeded-bug .lmc specs from their initial states,
// LMC-GEN, full search. Raft's combinations are bounded at total depth 10,
// which keeps all 24 confirmed violations at 2/3 of the unbounded cost
// (707,281 system states, 1,008,426 soundness calls). (Reduced: without
// raft_election_doublevote.)
Inputs make_zoo(bool reduced, Spans* spans) {
  constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();
  struct Spec {
    const char* file;
    std::uint32_t max_total_depth;
    Pin pin;
  };
  const std::vector<Spec> specs = {
      {"raft_election_doublevote", 10, Pin{868, 116, 535156, 664176, 24}},
      {"twophase_early_commit", kUnbounded, Pin{47, 18, 216, 172, 4}},
      {"chain_repl_ack_early", kUnbounded, Pin{7, 7, 12, 8, 2}},
      {"gossip_split_brain", kUnbounded, Pin{98, 21, 343, 429, 3}},
  };
  Inputs in;
  for (const Spec& sp : specs) {
    if (reduced && &sp == &specs.front()) continue;
    const double t0 = now_s();
    std::shared_ptr<dsl::CompiledProtocol> cp;
    {
      SpanScope s(spans, "dsl.load_file");
      dsl::LoadResult r =
          dsl::load_file(std::string(LMCBENCH_ZOO_DIR) + "/" + sp.file + ".lmc");
      if (!r.ok()) throw std::runtime_error(r.diags.to_string());
      SpanScope si(spans, "dsl.instantiate");
      cp = std::make_shared<dsl::CompiledProtocol>(dsl::instantiate(*r.spec));
    }
    in.dsl_load_s += now_s() - t0;
    Unit u;
    u.name = sp.file;
    u.cfg = std::shared_ptr<const SystemConfig>(cp, &cp->cfg);
    u.inv = std::shared_ptr<const Invariant>(cp, cp->invariant.get());
    u.nodes = initial_states(*u.cfg);
    u.opt.max_total_depth = sp.max_total_depth;
    u.opt.stop_on_confirmed = false;
    u.pin = sp.pin;
    u.buggy = true;
    in.units.push_back(std::move(u));
  }
  return in;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"paxos-explore", make_explore},
      {"paxos-online", make_online},
      {"paxos-wids", make_wids},
      {"zoo-buggy", make_zoo},
  };
  return defs;
}

RunResult run_unit(const Unit& u, unsigned threads, bool stop_on_confirmed, Mode mode,
                   bool fingerprint, Spans* spans, const char* span,
                   const std::function<void(const LocalModelChecker&)>& inspect) {
  LocalMcOptions opt = u.opt;
  opt.num_threads = threads;
  opt.stop_on_confirmed = stop_on_confirmed;
  if (mode == Mode::kExplore) opt.enable_system_states = false;
  if (mode == Mode::kSweep) opt.enable_soundness = false;
  RunResult out;
  const double t0 = now_s();
  std::optional<SpanScope> s(std::in_place, spans, span);
  LocalModelChecker mc(*u.cfg, u.inv.get(), opt);
  mc.run(u.nodes, u.in_flight);
  s.reset();
  out.wall_s = now_s() - t0;
  out.stats = mc.stats();
  if (fingerprint)
    out.fingerprint = hash_blob(dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes()));
  if (inspect) inspect(mc);
  return out;
}

std::uint64_t replay_all(const SystemConfig& cfg, const LocalModelChecker& mc,
                         std::uint64_t* calls, double* secs) {
  std::uint64_t failures = 0;
  for (const LocalViolation& v : mc.violations()) {
    if (!v.confirmed) continue;
    const double t0 = now_s();
    ReplayResult r = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(), v.witness,
                                     mc.events(), v.state_hashes);
    *secs += now_s() - t0;
    ++*calls;
    if (!r.ok) ++failures;
  }
  return failures;
}

void Gate::record(const std::string& what, const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems)
    std::fprintf(stderr, "VERDICT MISMATCH %s: %s\n", what.c_str(), p.c_str());
}

namespace {

void expect_eq(std::vector<std::string>& out, const char* what, std::int64_t pinned,
               std::uint64_t got) {
  if (pinned >= 0 && static_cast<std::uint64_t>(pinned) != got)
    out.push_back(std::string(what) + " " + std::to_string(got) + " != pinned " +
                  std::to_string(pinned));
}

std::vector<std::string> full_problems(const Unit& u, const LocalMcStats& s) {
  std::vector<std::string> p;
  expect_eq(p, "transitions", u.pin.transitions, s.transitions);
  expect_eq(p, "node_states", u.pin.node_states, s.node_states);
  expect_eq(p, "system_states", u.pin.system_states, s.system_states);
  expect_eq(p, "soundness_calls", u.pin.soundness_calls, s.soundness_calls);
  expect_eq(p, "confirmed", u.pin.confirmed, s.confirmed_violations);
  if (s.deferred_dropped != 0)
    p.push_back("deferred_dropped " + std::to_string(s.deferred_dropped));
  if (s.combo_truncated != 0)
    p.push_back("combo_truncated " + std::to_string(s.combo_truncated));
  return p;
}

}  // namespace

PassTimes run_pass(const Inputs& in, unsigned par, Gate& gate, Spans* spans, ReplayTally* replay,
                   const std::function<void(std::size_t, const LocalModelChecker&)>& on_full,
                   Runs runs) {
  PassTimes t;
  for (std::size_t i = 0; i < in.units.size(); ++i) {
    const Unit& u = in.units[i];
    std::vector<std::string> problems;
    auto replay_witnesses = [&](const LocalModelChecker& mc) {
      if (replay == nullptr) return;
      SpanScope s(spans, "replay.replay_schedule");
      const std::uint64_t bad = replay_all(*u.cfg, mc, &replay->calls, &replay->secs);
      replay->failures += bad;
      if (bad != 0) problems.push_back(std::to_string(bad) + " witness replay failure(s)");
    };

    if (runs != Runs::kParallel) {
      const RunResult full = run_unit(u, 1, false, Mode::kFull, true, spans, "check.full",
                                      [&](const LocalModelChecker& mc) {
                                        replay_witnesses(mc);
                                        if (on_full) on_full(i, mc);
                                      });
      std::vector<std::string> fp = full_problems(u, full.stats);
      problems.insert(problems.end(), fp.begin(), fp.end());
      if (gate.reference(i) == 0)
        gate.reference(i) = full.fingerprint;
      else if (gate.reference(i) != full.fingerprint)
        problems.push_back("fingerprint differs from the first pass");
      gate.record(u.name + " full@1", problems);

      double bug_s = full.wall_s;
      if (u.buggy) {
        problems.clear();
        const RunResult stop = run_unit(u, 1, true, Mode::kFull, false, spans,
                                        "check.stop_at_first", replay_witnesses);
        if (stop.stats.confirmed_violations != 1)
          problems.push_back("stop-at-first search confirmed " +
                             std::to_string(stop.stats.confirmed_violations) + " violations");
        gate.record(u.name + " stop@1", problems);
        bug_s = stop.wall_s;
      }
      t.check_s += full.wall_s;
      t.unit_s.push_back(full.wall_s);
      t.transitions += full.stats.transitions;
      t.time_to_bug_s += bug_s;
      t.unit_bug_s.push_back(bug_s);
    }
    if (runs != Runs::kSerial) {
      problems.clear();
      const RunResult full_par =
          run_unit(u, par, false, Mode::kFull, true, spans, "check.full_par");
      if (full_par.fingerprint != gate.reference(i))
        problems.push_back("fingerprint differs between 1 and " + std::to_string(par) +
                           " threads");
      gate.record(u.name + " full@par", problems);
      t.check_s_par += full_par.wall_s;
      t.unit_par_s.push_back(full_par.wall_s);
      t.soundness_wall_s_par += full_par.stats.soundness_wall_s;
    }
  }
  return t;
}

}  // namespace lmcbench
