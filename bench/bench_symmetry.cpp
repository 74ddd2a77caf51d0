// Symmetry-reduction trajectory (DESIGN.md §13): the combination sweep with
// the orbit canonicalizer on vs off, on the two workloads the reduction was
// built for.
//
//  - paxos_acceptors: the §5.1 one-proposal driver at N=3..7 nodes (one
//    proposer, N-1 interchangeable acceptors), chain depth 4. The ordered
//    sweep grows like k^(N-1); the reduced sweep enumerates acceptor
//    multisets. GATES at >=10x fewer explored combinations at N=6 — the
//    "Paxos at 5 acceptors" point.
//  - tree12: a 12-node broadcast tree written in the DSL (one root, eleven
//    interchangeable leaves), explored to the full fixpoint. GATES at >=10x.
//
// Both gates also require the reduced run to agree with the unreduced one on
// confirmed violations (none, on these clean workloads) and require the
// represented counter to cover every ordered combination the plain sweep
// materialized. Exits non-zero on any gate failure.
//
// Knobs: LMC_BENCH_BUDGET_S (default 120), LMC_BENCH_MAX_DEPTH (default 4,
// paxos chain depth).
#include <memory>

#include "bench_util.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"

using namespace lmc;
using namespace lmc::bench;

namespace {

constexpr double kGateFactor = 10.0;

struct Pair {
  LocalMcStats plain;
  LocalMcStats reduced;
  SymmetryStats sym;
  bool ok = true;
};

Pair run_pair(const SystemConfig& cfg, const Invariant* inv, std::uint32_t chain_depth,
              double budget_s, obs::ProfileSink* profile) {
  Pair p;
  for (int reduce = 0; reduce <= 1; ++reduce) {
    LocalMcOptions opt;
    opt.stop_on_confirmed = false;
    opt.max_chain_depth = chain_depth;
    opt.time_budget_s = budget_s;
    opt.profile = profile;
    if (reduce != 0) opt.symmetry.mode = symmetry::SymmetryMode::kAuto;
    LocalModelChecker mc(cfg, inv, opt);
    mc.run_from_initial();
    if (reduce == 0) {
      p.plain = mc.stats();
    } else {
      p.reduced = mc.stats();
      p.sym = mc.stats().sym;
    }
    p.ok = p.ok && mc.stats().completed;
  }
  // Agreement + accounting invariants of the reduction, checked on every row.
  p.ok = p.ok && p.plain.confirmed_violations == p.reduced.confirmed_violations;
  p.ok = p.ok && p.sym.active == 1 && p.reduced.system_states == p.sym.orbits;
  p.ok = p.ok && p.sym.represented >= p.plain.system_states;
  return p;
}

double factor(const Pair& p) {
  return p.reduced.system_states > 0
             ? static_cast<double>(p.plain.system_states) /
                   static_cast<double>(p.reduced.system_states)
             : 0.0;
}

void emit(const char* bench_case, std::uint32_t nodes, const Pair& p) {
  obs::BenchRecord rec("bench_symmetry", bench_case);
  rec.param("nodes", static_cast<std::uint64_t>(nodes));
  add_lmc_metrics(rec, p.reduced);
  rec.metric("plain_system_states", p.plain.system_states);
  rec.metric("orbits", p.sym.orbits);
  rec.metric("represented", p.sym.represented);
  rec.metric("reduction_factor", factor(p));
  rec.metric("agree", static_cast<std::uint64_t>(p.ok ? 1 : 0));
  rec.emit();
}

// The 12-node broadcast tree: the root pings all leaves; every leaf flips
// idle -> got independently, so the ordered sweep is 2 * 2^11 combinations
// while the reduced one sees 2 * 12 leaf multisets.
constexpr const char* kTree12 = R"(protocol tree12 {
  nodes 12;
  role root = 0;
  role leaf = 1 .. n - 1;
  states idle, sent, got;
  messages Ping;
  timer go at root @ idle -> sent { send Ping to leaf; }
  on Ping at leaf @ idle -> got { }
  invariant solo: never {sent} with {sent};
})";

}  // namespace

int main(int argc, char** argv) {
  BenchProfile prof(argc, argv, "bench_symmetry");
  const double budget = env_f("LMC_BENCH_BUDGET_S", 120.0);
  const std::uint32_t depth = env_u("LMC_BENCH_MAX_DEPTH", 4);
  // Node range of the paxos_acceptors sweep. Narrowing it (e.g. 5..5 for a
  // single-configuration profile) skips the N=6 gate, which needs that row.
  const std::uint32_t n_lo = env_u("LMC_BENCH_MIN_NODES", 3);
  const std::uint32_t n_hi = env_u("LMC_BENCH_MAX_NODES", 7);

  std::printf("# symmetry reduction — ordered combination sweep vs orbit enumeration\n");
  std::printf("# paxos: one proposer, N-1 interchangeable acceptors, chain depth %u\n", depth);
  std::printf("%16s %6s %12s %12s %12s %9s %6s\n", "case", "nodes", "combos", "orbits",
              "represented", "factor", "ok");

  bool all_ok = true;
  auto inv = paxos::make_agreement_invariant();
  double gate_paxos = 0.0;
  bool gate_paxos_seen = false;
  for (std::uint32_t n = n_lo; n <= n_hi; ++n) {
    paxos::DriverConfig d;
    d.proposers = {0};
    d.max_proposals = 1;
    SystemConfig cfg = paxos::make_config(n, paxos::CoreOptions{}, d);
    Pair p = run_pair(cfg, inv.get(), depth, budget, prof.sink());
    if (n == 6) {
      gate_paxos = factor(p);
      gate_paxos_seen = true;
    }
    all_ok = all_ok && p.ok;
    std::printf("%16s %6u %12llu %12llu %12llu %8.2fx %6s\n", "paxos_acceptors", n,
                static_cast<unsigned long long>(p.plain.system_states),
                static_cast<unsigned long long>(p.sym.orbits),
                static_cast<unsigned long long>(p.sym.represented), factor(p),
                p.ok ? "yes" : "NO");
    emit("paxos_acceptors", n, p);
  }

  // LMC_BENCH_SKIP_TREE=1 drops the tree12 row (and its gate) so a narrowed
  // paxos sweep yields a single-family profile — EXPERIMENTS.md uses
  // MIN/MAX_NODES=5 + SKIP_TREE for the pure Paxos N=5 hottest-rules table.
  if (env_u("LMC_BENCH_SKIP_TREE", 0) != 0) {
    if (!all_ok) std::printf("# UNEXPECTED: a reduced run disagreed with its unreduced twin\n");
    if (gate_paxos_seen)
      std::printf("# gate: >=%.0fx at paxos N=6 (got %.2fx) — %s\n", kGateFactor, gate_paxos,
                  gate_paxos >= kGateFactor ? "PASS" : "FAIL");
    return (all_ok && (!gate_paxos_seen || gate_paxos >= kGateFactor)) ? 0 : 1;
  }

  dsl::LoadResult r = dsl::load_text(kTree12, "tree12.lmc");
  if (!r.ok()) {
    std::printf("tree12 failed to load:\n%s\n", r.diags.to_string().c_str());
    return 1;
  }
  dsl::CompiledProtocol tree = dsl::instantiate(*r.spec);
  Pair tp = run_pair(tree.cfg, tree.invariant.get(), UINT32_MAX, budget, prof.sink());
  const double gate_tree = factor(tp);
  all_ok = all_ok && tp.ok;
  std::printf("%16s %6u %12llu %12llu %12llu %8.2fx %6s\n", "tree_broadcast", 12u,
              static_cast<unsigned long long>(tp.plain.system_states),
              static_cast<unsigned long long>(tp.sym.orbits),
              static_cast<unsigned long long>(tp.sym.represented), gate_tree,
              tp.ok ? "yes" : "NO");
  emit("tree_broadcast", 12, tp);

  const bool gates =
      (!gate_paxos_seen || gate_paxos >= kGateFactor) && gate_tree >= kGateFactor;
  if (gate_paxos_seen)
    std::printf("# gate: >=%.0fx at paxos N=6 (got %.2fx) and tree12 (got %.2fx) — %s\n",
                kGateFactor, gate_paxos, gate_tree, gates ? "PASS" : "FAIL");
  else
    std::printf("# gate: paxos N=6 outside the node range — tree12 only (got %.2fx) — %s\n",
                gate_tree, gates ? "PASS" : "FAIL");
  if (!all_ok) std::printf("# UNEXPECTED: a reduced run disagreed with its unreduced twin\n");
  return (all_ok && gates) ? 0 : 1;
}
