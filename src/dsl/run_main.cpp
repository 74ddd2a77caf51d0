// lmc_run: load, validate, model-check and cross-check a .lmc protocol.
//
//   lmc_run [options] SPEC.lmc
//     --check            parse + validate only (gcc-style diagnostics, exit 0/2)
//     --emit             print the canonical fully-elaborated .lmc text
//     --oracle           base run through the full DiffOracle (LMC vs global
//                        baseline, witness replay, resume round-trip, OPT path)
//     --symmetry         oracle only: add the reduced-vs-unreduced differential
//                        (confirmed sets must match up to role permutation)
//     --por              oracle only: add the partial-order-reduction
//                        differential (exactly equal confirmed sets, every
//                        prune decision runtime-audited, 1-vs-8-thread
//                        checkpoint byte identity)
//     --scenario NAME    run only the named scenario from the spec
//     --no-scenarios     base run only
//     --nodes N          override the protocol's node count
//     --threads T        LMC phase-2 threads (default 1)
//     --time-budget SEC  per-checker budget (default 30)
//     --audit-every K    oracle: sampled soundness audit of reachable tuples
//     --audit-validity   audit handler executions (ModelValidityAuditor)
//     --trace FILE       write an "lmc-trace/1" JSONL of the base exploration
//     --profile FILE     write an "lmc-prof/2" JSONL profile of the base
//                        exploration (per-rule costs; lmc_report --profile)
//
// The base run explores from the protocol's initial states and enforces the
// spec's expectation: `expect violation;` demands at least one confirmed
// violation, its absence demands zero. Each scenario then runs the seeded
// lossy-transport/timer prelude (LiveRunner + SimTransport), snapshots, and
// differentially checks LMC against the global baseline FROM THE SNAPSHOT:
// node-state completeness, identical violation verdict sets, and witness
// replay of every confirmed violation. Scenario runs gate on agreement, not
// on bug presence — whether a prelude reaches a buggy region depends on the
// seed, which is exactly the diversity the matrix exists to sample.
//
// Exit: 0 = ok, 1 = disagreement/expectation failure, 2 = usage/spec errors.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/global_mc.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "obs/bench_schema.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "online/live_runner.hpp"
#include "runtime/audit.hpp"
#include "runtime/hash.hpp"

namespace {

using namespace lmc;

struct Args {
  std::string spec_path;
  std::string scenario;
  std::string trace_file;
  std::string profile_file;
  std::uint32_t nodes = 0;  ///< 0 = use the spec's count
  unsigned threads = 1;
  double time_budget_s = 30.0;
  std::uint32_t audit_every = 0;
  bool audit_validity = false;
  bool check_only = false;
  bool emit = false;
  bool oracle = false;
  bool symmetry = false;  ///< --oracle only: reduced-vs-unreduced differential
  bool por = false;       ///< --oracle only: POR-reduced-vs-unreduced differential
  bool no_scenarios = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: lmc_run [--check] [--emit] [--oracle] [--symmetry] [--por]\n"
               "               [--scenario NAME] [--no-scenarios] [--nodes N] [--threads T]\n"
               "               [--time-budget SEC] [--audit-every K] [--audit-validity]\n"
               "               [--trace FILE] [--profile FILE] SPEC.lmc\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--check") {
      a.check_only = true;
    } else if (arg == "--emit") {
      a.emit = true;
    } else if (arg == "--oracle") {
      a.oracle = true;
    } else if (arg == "--symmetry") {
      a.symmetry = true;
    } else if (arg == "--por") {
      a.por = true;
    } else if (arg == "--no-scenarios") {
      a.no_scenarios = true;
    } else if (arg == "--audit-validity") {
      a.audit_validity = true;
    } else if (arg == "--scenario" && (v = next())) {
      a.scenario = v;
    } else if (arg == "--trace" && (v = next())) {
      a.trace_file = v;
    } else if (arg == "--profile" && (v = next())) {
      a.profile_file = v;
    } else if (arg == "--nodes" && (v = next())) {
      a.nodes = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--threads" && (v = next())) {
      a.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--time-budget" && (v = next())) {
      a.time_budget_s = std::strtod(v, nullptr);
    } else if (arg == "--audit-every" && (v = next())) {
      a.audit_every = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (!arg.empty() && arg[0] != '-' && a.spec_path.empty()) {
      a.spec_path = arg;
    } else {
      return false;
    }
  }
  // --symmetry rides on the oracle's unreduced reference run; the plain
  // diff path compares EXACT violation sets against the global baseline,
  // which a reduced run intentionally does not reproduce.
  if (a.symmetry && !a.oracle) {
    std::fprintf(stderr, "error: --symmetry requires --oracle\n");
    return false;
  }
  if (a.por && !a.oracle) {
    std::fprintf(stderr, "error: --por requires --oracle\n");
    return false;
  }
  return !a.spec_path.empty();
}

Hash64 tuple_hash(const std::vector<Hash64>& tuple) {
  Hash64 h = 0x9e3779b97f4a7c15ULL;
  for (Hash64 nh : tuple) h = hash_combine(h, nh);
  return h;
}

/// Aggregated over the base run + every scenario; feeds the bench record.
struct RunTotals {
  std::uint64_t gmc_states = 0;
  std::uint64_t lmc_transitions = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t witnesses_replayed = 0;
  std::uint64_t disagreements = 0;
  std::uint64_t inconclusive = 0;
  std::uint64_t scenarios_run = 0;
};

/// Differential check from a snapshot (the base run passes the initial
/// state): global B-DFS vs LMC on identical starts, then node-state
/// completeness, verdict-set equality both ways, and witness replay.
/// Returns false on any disagreement.
bool diff_check_from(const char* label, const SystemConfig& cfg,
                     const dsl::DslInvariant* inv, const std::vector<Blob>& nodes,
                     const std::vector<Message>& in_flight, const Args& args,
                     obs::TraceSink* trace, obs::ProfileSink* profile, RunTotals& tot,
                     std::uint64_t* confirmed_out) {
  bool ok = true;
  auto fail = [&](const std::string& what) {
    if (ok) ++tot.disagreements;
    ok = false;
    std::printf("  DISAGREEMENT: %s\n", what.c_str());
  };

  GlobalMcOptions gopt;
  gopt.collect_system_states = true;
  gopt.assert_is_violation = false;  // match LMC's AssertPolicy::DiscardState
  gopt.max_transitions = 2'000'000;
  gopt.time_budget_s = args.time_budget_s;
  GlobalModelChecker g(cfg, inv, gopt);
  g.run(nodes, Network(in_flight));
  tot.gmc_states += g.stats().unique_states;
  if (!g.stats().completed) {
    ++tot.inconclusive;
    std::printf("  %s: inconclusive (global baseline hit a budget)\n", label);
    return true;
  }

  LocalMcOptions lopt;
  lopt.stop_on_confirmed = false;
  lopt.num_threads = args.threads;
  lopt.time_budget_s = args.time_budget_s;
  lopt.audit_validity = args.audit_validity;
  lopt.trace = trace;
  lopt.profile = profile;
  LocalModelChecker l(cfg, inv, lopt);
  try {
    l.run(nodes, in_flight);
  } catch (const ModelValidityError& e) {
    fail(std::string("model validity audit: ") + e.what());
    return false;
  }
  tot.lmc_transitions += l.stats().transitions;
  tot.confirmed += l.stats().confirmed_violations;
  if (confirmed_out != nullptr) *confirmed_out = l.stats().confirmed_violations;
  if (!l.stats().completed) {
    ++tot.inconclusive;
    std::printf("  %s: inconclusive (local checker hit a budget)\n", label);
    return true;
  }

  // Completeness: every node state inside a globally reached system tuple
  // was traversed locally.
  for (const auto& [h, tuple] : g.system_state_tuples()) {
    (void)h;
    for (NodeId n = 0; n < cfg.num_nodes; ++n)
      if (l.store().find(n, tuple[n]) == UINT32_MAX) {
        fail("node state reached globally but never traversed by LMC (node " +
             std::to_string(n) + ")");
        break;
      }
    if (!ok) break;
  }

  // Verdict sets must agree in both directions.
  std::unordered_map<Hash64, std::vector<Hash64>> gmc_viol;
  for (const GlobalViolation& v : g.violations()) {
    std::vector<Hash64> tuple;
    tuple.reserve(v.system_state.size());
    for (const Blob& b : v.system_state) tuple.push_back(hash_blob(b));
    gmc_viol.emplace(tuple_hash(tuple), std::move(tuple));
  }
  std::unordered_set<Hash64> lmc_confirmed;
  for (const LocalViolation& v : l.violations())
    if (v.confirmed) lmc_confirmed.insert(tuple_hash(v.state_hashes));
  for (const auto& [h, tuple] : gmc_viol) {
    (void)tuple;
    if (lmc_confirmed.count(h) == 0)
      fail("globally found violation missing from LMC's confirmed set");
  }
  for (const LocalViolation& v : l.violations()) {
    if (!v.confirmed) continue;
    if (gmc_viol.count(tuple_hash(v.state_hashes)) == 0)
      fail("LMC confirmed a violation the global search never reached");
  }

  // Witness replay: every confirmed violation re-executes through the real
  // handlers back to the claimed states.
  for (const LocalViolation& v : l.violations()) {
    if (!v.confirmed) continue;
    ReplayResult r = replay_schedule(cfg, l.initial_nodes(), l.initial_in_flight(), v.witness,
                                     l.events(), v.state_hashes);
    ++tot.witnesses_replayed;
    if (!r.ok) fail("witness replay failed: " + r.error);
  }

  std::printf("  %s: %s — %" PRIu64 " global states, %" PRIu64 " LMC transitions, %" PRIu64
              " confirmed violation(s), %" PRIu64 " global violation tuple(s)\n",
              label, ok ? "agree" : "DISAGREE", g.stats().unique_states,
              l.stats().transitions, l.stats().confirmed_violations,
              static_cast<std::uint64_t>(gmc_viol.size()));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  dsl::CompileOptions copts;
  if (args.nodes != 0) copts.override_nodes = args.nodes;
  dsl::LoadResult loaded = dsl::load_file(args.spec_path, copts);
  std::fputs(loaded.diags.to_string().c_str(), stderr);
  if (!loaded.ok()) return 2;
  const dsl::DslSpec& spec = *loaded.spec;

  if (args.emit) {
    std::fputs(dsl::to_lmc_text(spec).c_str(), stdout);
    return 0;
  }

  std::printf("%s: protocol '%s' — %u nodes, %zu states, %zu message types, %zu internal + "
              "%zu message rule(s), %zu invariant(s), %zu scenario(s)%s\n",
              args.spec_path.c_str(), spec.name.c_str(), spec.num_nodes, spec.states.size(),
              spec.messages.size(), spec.internals.size(), spec.msg_rules.size(),
              spec.invariants.size(), spec.scenarios.size(),
              spec.expect_violation ? " [expect violation]" : "");
  if (args.check_only) return 0;

  try {
    RunTotals tot;
    bool ok = true;
    obs::TraceSink trace;
    obs::TraceSink* trace_ptr = args.trace_file.empty() ? nullptr : &trace;
    obs::ProfileSink prof;
    obs::ProfileSink* prof_ptr = args.profile_file.empty() ? nullptr : &prof;

    // --- base run: from initial states, expectation enforced ----------------
    dsl::CompiledProtocol base = dsl::instantiate(spec);
    std::uint64_t base_confirmed = 0;
    if (args.oracle) {
      dfuzz::OracleOptions oopt;
      oopt.num_threads = args.threads;
      oopt.gmc_time_budget_s = args.time_budget_s;
      oopt.lmc_time_budget_s = args.time_budget_s;
      oopt.audit_every = args.audit_every;
      oopt.audit_validity = args.audit_validity;
      oopt.check_symmetry = args.symmetry;
      oopt.check_por = args.por;
      oopt.trace = trace_ptr;
      oopt.profile = prof_ptr;
      dfuzz::OracleReport rep = dfuzz::DiffOracle(oopt).check(base.cfg, base.invariant.get());
      tot.gmc_states += rep.gmc_states;
      tot.lmc_transitions += rep.lmc_transitions;
      tot.confirmed += rep.lmc_confirmed;
      tot.witnesses_replayed += rep.witnesses_replayed;
      base_confirmed = rep.lmc_confirmed;
      if (!rep.conclusive) {
        ++tot.inconclusive;
        std::printf("  base oracle: inconclusive (%s)\n", rep.detail.c_str());
      } else if (rep.ok) {
        std::printf("  base oracle: agree — %" PRIu64 " global states, %" PRIu64
                    " confirmed violation(s), %" PRIu64 " witness(es) replayed%s%s\n",
                    rep.gmc_states, rep.lmc_confirmed, rep.witnesses_replayed,
                    rep.opt_checked ? ", OPT path checked" : "",
                    rep.sym_checked ? ", symmetry reduction checked" : "");
        if (rep.sym_checked)
          std::printf("  symmetry: %" PRIu64 " orbit(s) materialized, %" PRIu64
                      " confirmed in the reduced run\n",
                      rep.sym_orbits, rep.sym_confirmed);
        if (rep.por_checked)
          std::printf("  por: %" PRIu64 " independent pair(s), %" PRIu64
                      " delivery(ies) pruned, %" PRIu64 " commutation audit(s), %" PRIu64
                      " confirmed in the reduced run\n",
                      rep.por_relation_pairs, rep.por_pruned, rep.por_audits,
                      rep.por_confirmed);
      } else {
        ++tot.disagreements;
        ok = false;
        std::printf("  base oracle: DISAGREEMENT [%s] %s\n", dfuzz::to_string(rep.failure),
                    rep.detail.c_str());
      }
    } else {
      std::vector<Blob> init = initial_states(base.cfg);
      ok = diff_check_from("base", base.cfg, base.invariant.get(), init, {}, args, trace_ptr,
                           prof_ptr, tot, &base_confirmed) &&
           ok;
    }

    // Expectation check (base run only: scenario preludes may or may not
    // steer into a buggy region, by design).
    if (spec.expect_violation && base_confirmed == 0) {
      ok = false;
      std::printf("  EXPECTATION FAILED: spec declares 'expect violation;' but the base run "
                  "confirmed none\n");
    } else if (!spec.expect_violation && base_confirmed > 0) {
      ok = false;
      std::printf("  EXPECTATION FAILED: base run confirmed %" PRIu64
                  " violation(s) but the spec declares none expected\n",
                  base_confirmed);
    }

    // --- scenario matrix ----------------------------------------------------
    if (!args.no_scenarios) {
      bool matched = false;
      for (const dsl::Scenario& sc : spec.scenarios) {
        if (!args.scenario.empty() && sc.name != args.scenario) continue;
        matched = true;
        ++tot.scenarios_run;

        // Re-elaborate at the scenario's node count (role ranges and
        // broadcasts are node-count-relative).
        dsl::CompileOptions scopts;
        scopts.override_nodes = sc.num_nodes;
        dsl::DiagList sdiags(args.spec_path);
        auto sspec = dsl::compile(*loaded.protocol, sdiags, scopts);
        if (!sspec) {
          std::fputs(sdiags.to_string().c_str(), stderr);
          std::printf("  scenario %s: spec does not elaborate at %u nodes\n", sc.name.c_str(),
                      sc.num_nodes);
          ok = false;
          continue;
        }
        dsl::CompiledProtocol p = dsl::instantiate(*sspec);

        LiveOptions lo;
        lo.seed = sc.seed;
        lo.transport.seed = sc.seed;
        lo.transport.drop_prob = sc.drop_pct / 100.0;
        lo.app_min = 0.0;
        lo.app_max = sc.app_max;
        lo.fifo_per_pair = sc.fifo;
        LiveRunner live(p.cfg, lo, first_enabled_driver());
        live.run_until(sc.sim_time);
        Snapshot snap = live.snapshot();
        std::printf("scenario %s: nodes=%u seed=%" PRIu64 " drop=%.0f%% — prelude delivered "
                    "%" PRIu64 " message(s), dropped %" PRIu64 ", %zu in flight\n",
                    sc.name.c_str(), sc.num_nodes, sc.seed, sc.drop_pct, live.delivered(),
                    live.transport().dropped(), snap.in_flight.size());
        if (live.assert_failures() > 0) {
          ok = false;
          std::printf("  LIVE ASSERT: %" PRIu64 " local assertion failure(s) in the prelude\n",
                      live.assert_failures());
        }
        ok = diff_check_from(sc.name.c_str(), p.cfg, p.invariant.get(), snap.nodes,
                             snap.in_flight, args, nullptr, nullptr, tot, nullptr) &&
             ok;
      }
      if (!args.scenario.empty() && !matched) {
        std::fprintf(stderr, "error: no scenario named '%s' in %s\n", args.scenario.c_str(),
                     args.spec_path.c_str());
        return 2;
      }
    }

    if (trace_ptr != nullptr) trace.write_jsonl(args.trace_file);
    if (prof_ptr != nullptr) prof.write_jsonl(args.profile_file);

    obs::BenchRecord rec("lmc_run", spec.name);
    rec.param("spec", args.spec_path);
    rec.param("threads", static_cast<std::uint64_t>(args.threads));
    rec.param("oracle", static_cast<std::uint64_t>(args.oracle ? 1 : 0));
    rec.metric("scenarios_run", tot.scenarios_run);
    rec.metric("gmc_states", tot.gmc_states);
    rec.metric("lmc_transitions", tot.lmc_transitions);
    rec.metric("confirmed_violations", tot.confirmed);
    rec.metric("witnesses_replayed", tot.witnesses_replayed);
    rec.metric("disagreements", tot.disagreements);
    rec.metric("inconclusive", tot.inconclusive);
    rec.emit();

    std::printf("lmc_run: %s — %" PRIu64 " scenario(s), %" PRIu64 " disagreement(s), %" PRIu64
                " witness(es) replayed\n",
                ok ? "OK" : "FAILED", tot.scenarios_run, tot.disagreements,
                tot.witnesses_replayed);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
