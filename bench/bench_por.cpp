// Partial-order-reduction trajectory (DESIGN.md §14): phase-1 exploration
// with the independence-driven sleep-set pruner on vs off, composed with the
// symmetry reduction (both runs use SymmetryMode::kAuto so the measured
// delta is POR's marginal contribution, not symmetry's).
//
//  - paxos_por: the §5.1 one-proposal driver at N=3..6 nodes, exhaustive
//    (unbounded-depth) exploration — POR only activates with unbounded
//    depth, because pruning first-discovery edges shifts recorded depths.
//    The combination sweep is off on paxos rows (POR thins PHASE-1
//    deliveries; sweeping millions of system-state combos at N=5..6 would
//    just add minutes of constant to both sides of the ratio) and the
//    honesty check is node-state-set size instead.
//    The static relation derives five independent handler pairs per node
//    (Prepare/PrepareResponse/Accept/Learn disjointness); the pruner skips
//    deliveries whose commuted twin already covers the successor. GATES at
//    >=2x fewer explored transitions on at least one row.
//  - paxos_por2: the same system with TWO competing proposers at N=3 — a
//    contention-heavy row (informational, no gate).
//  - two zoo specs (informational, no gate): the reduction's effect on
//    hand-written .lmc protocols, loaded from LMC_ZOO_DIR (default
//    ../examples/zoo, the CI bench working directory being build/).
//
// Every row also requires both runs to complete AND agree on confirmed
// violations AND on the explored node-state count — sleep-set pruning skips
// redundant deliveries only, so the reduced store must hold exactly as many
// states. Exits non-zero on any gate or agreement failure.
//
// Knobs: LMC_BENCH_BUDGET_S (default 120), LMC_ZOO_DIR.
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"

using namespace lmc;
using namespace lmc::bench;

namespace {

constexpr double kGateFactor = 2.0;

struct Pair {
  LocalMcStats plain;
  LocalMcStats reduced;
  PorStats por;
  bool ok = true;
};

Pair run_pair(const SystemConfig& cfg, const Invariant* inv, double budget_s,
              bool system_states, obs::ProfileSink* profile) {
  Pair p;
  for (int reduce = 0; reduce <= 1; ++reduce) {
    LocalMcOptions opt;
    opt.stop_on_confirmed = false;
    opt.time_budget_s = budget_s;
    opt.enable_system_states = system_states;
    opt.symmetry.mode = symmetry::SymmetryMode::kAuto;
    opt.profile = profile;
    if (reduce != 0) opt.por.mode = indep::PorMode::kOn;
    LocalModelChecker mc(cfg, inv, opt);
    mc.run_from_initial();
    if (reduce == 0) {
      p.plain = mc.stats();
    } else {
      p.reduced = mc.stats();
      p.por = mc.stats().por;
    }
    p.ok = p.ok && mc.stats().completed;
  }
  // Per-row honesty: the pruned run must confirm exactly as many violations
  // and traverse exactly as many node states (it skips deliveries, not
  // states).
  p.ok = p.ok && p.plain.confirmed_violations == p.reduced.confirmed_violations &&
         p.plain.node_states == p.reduced.node_states;
  return p;
}

double factor(const Pair& p) {
  return p.reduced.transitions > 0 ? static_cast<double>(p.plain.transitions) /
                                         static_cast<double>(p.reduced.transitions)
                                   : 0.0;
}

void emit(const char* bench_case, std::uint32_t nodes, const Pair& p) {
  obs::BenchRecord rec("bench_por", bench_case);
  rec.param("nodes", static_cast<std::uint64_t>(nodes));
  add_lmc_metrics(rec, p.reduced);
  rec.metric("plain_transitions", p.plain.transitions);
  rec.metric("por_active", static_cast<std::uint64_t>(p.por.active));
  rec.metric("por_relation_pairs", p.por.relation_pairs);
  rec.metric("por_pruned", p.por.pairs_pruned);
  rec.metric("por_conservative", p.por.conservative_skips);
  rec.metric("por_deferrals", p.por.deferrals);
  rec.metric("reduction_factor", factor(p));
  rec.metric("agree", static_cast<std::uint64_t>(p.ok ? 1 : 0));
  rec.emit();
}

void print_row(const char* bench_case, std::uint32_t nodes, const Pair& p) {
  std::printf("%24s %6u %12llu %12llu %10llu %8.2fx %6s\n", bench_case, nodes,
              static_cast<unsigned long long>(p.plain.transitions),
              static_cast<unsigned long long>(p.reduced.transitions),
              static_cast<unsigned long long>(p.por.pairs_pruned), factor(p),
              p.ok ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  BenchProfile prof(argc, argv, "bench_por");
  const double budget = env_f("LMC_BENCH_BUDGET_S", 120.0);
  const char* zoo_env = std::getenv("LMC_ZOO_DIR");
  const std::string zoo_dir = zoo_env != nullptr ? zoo_env : "../examples/zoo";

  std::printf("# partial-order reduction — por+symmetry vs symmetry alone\n");
  std::printf("# paxos: one-proposal driver, exhaustive (unbounded-depth) exploration\n");
  std::printf("%24s %6s %12s %12s %10s %9s %6s\n", "case", "nodes", "plain", "por", "pruned",
              "factor", "ok");

  bool all_ok = true;
  double gate_best = 0.0;
  auto inv = paxos::make_agreement_invariant();
  for (std::uint32_t n = 3; n <= 6; ++n) {
    paxos::DriverConfig d;
    d.proposers = {0};
    d.max_proposals = 1;
    SystemConfig cfg = paxos::make_config(n, paxos::CoreOptions{}, d);
    Pair p = run_pair(cfg, inv.get(), budget, /*system_states=*/false, prof.sink());
    all_ok = all_ok && p.ok && p.por.active != 0;
    if (factor(p) > gate_best) gate_best = factor(p);
    print_row("paxos_por", n, p);
    emit("paxos_por", n, p);
  }

  // Contention row: two proposers race Prepare/Accept traffic, so far more
  // deliveries commute past each other (informational, no gate).
  {
    paxos::DriverConfig d;
    d.proposers = {0, 1};
    d.max_proposals = 1;
    SystemConfig cfg = paxos::make_config(3, paxos::CoreOptions{}, d);
    Pair p = run_pair(cfg, inv.get(), budget, /*system_states=*/false, prof.sink());
    all_ok = all_ok && p.ok && p.por.active != 0;
    print_row("paxos_por2", 3, p);
    emit("paxos_por2", 3, p);
  }

  // Informational zoo rows (hand-written protocols; no gate — their state
  // spaces are small enough that pruning is a bonus, not the point).
  for (const char* name : {"raft_election_doublevote", "twophase_early_commit"}) {
    const std::string path = zoo_dir + "/" + name + ".lmc";
    dsl::LoadResult r = dsl::load_file(path);
    if (!r.ok()) {
      std::printf("# %s failed to load (set LMC_ZOO_DIR):\n%s\n", path.c_str(),
                  r.diags.to_string().c_str());
      return 1;
    }
    dsl::CompiledProtocol zoo = dsl::instantiate(*r.spec);
    Pair p = run_pair(zoo.cfg, zoo.invariant.get(), budget, /*system_states=*/true, prof.sink());
    all_ok = all_ok && p.ok;
    print_row(name, zoo.cfg.num_nodes, p);
    emit(name, zoo.cfg.num_nodes, p);
  }

  const bool gate = gate_best >= kGateFactor;
  std::printf("# gate: >=%.0fx fewer transitions on at least one paxos row (best %.2fx) — %s\n",
              kGateFactor, gate_best, gate ? "PASS" : "FAIL");
  if (!all_ok) std::printf("# UNEXPECTED: a reduced run disagreed with its unreduced twin\n");
  return (all_ok && gate) ? 0 : 1;
}
