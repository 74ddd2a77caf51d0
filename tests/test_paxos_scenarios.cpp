// Columbia-assignment-style Paxos scenarios driven through the checker, at
// the paper's 3-node size and at 5 nodes where the acceptor class {2,3,4} is
// big enough for the symmetry reduction (DESIGN.md §13) to pay off.
//
// Scenario depths are calibrated against the combinatorial reality of the
// full (projection-free) combination sweep the reduction requires: a
// from-initial dueling-proposer run at 3 nodes already materializes 54M
// combinations by chain depth 4, so each scenario stages its interesting
// prefix concretely through the real handlers (exec_message/exec_internal)
// and lets the checker explore the short suffix where the §5.5 bug bites.
// Every 5-node scenario runs reduced AND unreduced; confirmed sets must
// agree up to acceptor permutation and reduced witnesses must replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "mc/symmetry/role_group.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

using paxos::DriverConfig;

// Pinned counts for the seeded-buggy (§5.5 bug_last_response) variants. A
// checker or protocol change that moves one of these must do so on purpose.
constexpr std::uint64_t kStale3Depth3Confirmed = 4;
constexpr std::uint64_t kStale3Depth4Confirmed = 60;
constexpr std::uint64_t kAccept3Confirmed = 224;        // depth 3
constexpr std::uint64_t kAccept5PlainConfirmed = 3888;  // depth 1, ordered
constexpr std::uint64_t kAccept5ReducedConfirmed = 1008;
// Pinned combination-sweep sizes for the 5-node reduced-vs-unreduced pairs:
// the reduction factor is the scenario's whole point, so its two sides are
// regression-pinned alongside the violation counts.
constexpr std::uint64_t kAccept5Combos = 5184, kAccept5Orbits = 1344;  // depth 1
constexpr std::uint64_t kDuel5Combos = 21168, kDuel5Orbits = 7840;     // depth 2
constexpr std::uint64_t kPart5Combos = 384, kPart5Orbits = 192;        // depth 3

SystemConfig duel_cfg(std::uint32_t n, bool bug) {
  return paxos::make_config(n, paxos::CoreOptions{0, bug}, DriverConfig{{0, 1}, 1});
}

bool deliver_one(const SystemConfig& cfg, std::vector<Blob>& nodes,
                 std::vector<Message>& flight, NodeId dst, std::uint32_t type) {
  for (std::size_t i = 0; i < flight.size(); ++i) {
    if (flight[i].dst == dst && flight[i].type == type) {
      Message m = flight[i];
      flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
      ExecResult r = exec_message(cfg, dst, nodes[dst], m);
      EXPECT_FALSE(r.assert_failed);
      nodes[dst] = std::move(r.state);
      for (Message& out : r.sent) flight.push_back(std::move(out));
      return true;
    }
  }
  return false;
}

void fire_internal(const SystemConfig& cfg, std::vector<Blob>& nodes,
                   std::vector<Message>& flight, NodeId n) {
  auto evs = internal_events_of(cfg, n, nodes[n]);
  ASSERT_FALSE(evs.empty());
  ExecResult r = exec_internal(cfg, n, nodes[n], evs[0]);
  ASSERT_FALSE(r.assert_failed);
  nodes[n] = std::move(r.state);
  for (Message& out : r.sent) flight.push_back(std::move(out));
}

// Checker options for the scenario runs. Symmetry requires the full-depth
// sweep (max_total_depth stays unbounded, see resolve_symmetry), so the
// space is bounded per chain instead.
LocalMcOptions scenario_opt(std::uint32_t chain_depth, bool reduce) {
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  opt.max_chain_depth = chain_depth;
  opt.time_budget_s = 300;
  if (reduce) opt.symmetry.mode = symmetry::SymmetryMode::kAuto;
  return opt;
}

// Confirmed violations as a set of acceptor-permutation-invariant keys: the
// reduced run reports one representative per orbit, so raw counts are only
// comparable after canonicalization.
std::vector<Hash64> confirmed_canon_set(const LocalModelChecker& mc,
                                        const std::vector<std::vector<NodeId>>& classes) {
  std::vector<Hash64> keys;
  for (const LocalViolation& v : mc.violations())
    if (v.confirmed) keys.push_back(symmetry::canonical_key(v.state_hashes, classes));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Replay every confirmed witness of `mc` through the real handlers.
void replay_all_confirmed(const SystemConfig& cfg, const LocalModelChecker& mc) {
  std::size_t replayed = 0;
  for (const LocalViolation& v : mc.violations()) {
    if (!v.confirmed) continue;
    ReplayResult r = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(),
                                     v.witness, mc.events(), v.state_hashes);
    EXPECT_TRUE(r.ok) << r.error;
    ++replayed;
  }
  EXPECT_EQ(replayed, mc.stats().confirmed_violations);
}

struct Live {
  std::vector<Blob> nodes;
  std::vector<Message> flight;
};

// Both proposers have fired their proposal; every Prepare is in flight.
Live build_duel_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);  // init
  fire_internal(cfg, l.nodes, l.flight, 0);
  fire_internal(cfg, l.nodes, l.flight, 1);
  return l;
}

// §5.5 generalized to n nodes: node0's proposal is chosen at the majority
// {0..maj-1}, but only node0 learned it — every other Learn was dropped
// (the "acceptor crashed after promising" shape). Proposer 1 has not moved
// yet; the checker must FIND the interleaving where its second round
// collects a stale promise set the bug_last_response variant mishandles.
Live build_stale_promise_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);
  fire_internal(cfg, l.nodes, l.flight, 0);
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepareResponse));
  const std::uint32_t maj = n / 2 + 1;
  for (NodeId i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kAccept));
  for (std::uint32_t i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kLearn));
  l.flight.clear();

  auto chosen0 = paxos::chosen_map_of(cfg, 0, l.nodes[0]);
  EXPECT_EQ(chosen0.size(), 1u);
  EXPECT_EQ(chosen0[0], 1u);  // node0's proposed value is self+1
  for (NodeId i = 1; i < n; ++i)
    EXPECT_TRUE(paxos::chosen_map_of(cfg, i, l.nodes[i]).empty());
  return l;
}

// The stale-promise scenario staged all the way into proposer 1's second
// round (at 5 nodes the checker cannot reach this interleaving within a
// feasible chain depth, so the prefix is concrete): proposer 1's Prepares
// are delivered so that a PROMISE-ONLY response is the last one inside its
// first quorum — exactly the ordering where bug_last_response discards the
// accepted value and proposes its own — then its Accepts land everywhere
// and all but maj-1 of the round-2 Learns stay in flight.
Live build_accept_race_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  const std::uint32_t maj = n / 2 + 1;
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);
  // Round 1 = the stale-promise prefix: v1 chosen at {0..maj-1}, node0 knows.
  fire_internal(cfg, l.nodes, l.flight, 0);
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepareResponse));
  for (NodeId i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kAccept));
  for (std::uint32_t i = 0; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kLearn));
  l.flight.clear();
  // Round 2: proposer 1 prepares; an empty promise is last in its quorum.
  fire_internal(cfg, l.nodes, l.flight, 1);
  EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepare));
  for (NodeId i = maj; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (NodeId i = 1; i < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 1, paxos::kPrepareResponse));
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kAccept));
  for (std::uint32_t i = 0; i + 1 < maj; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 1, paxos::kLearn));
  return l;
}

// Minority partition: node0's Prepare reached only {0,1} — no quorum at
// n>=3 — before the partition ate the rest. Nothing was ever accepted.
Live build_partition_state(const SystemConfig& cfg, std::uint32_t n) {
  Live l;
  l.nodes = initial_states(cfg);
  for (NodeId i = 0; i < n; ++i) fire_internal(cfg, l.nodes, l.flight, i);
  fire_internal(cfg, l.nodes, l.flight, 0);
  for (NodeId i = 0; i < 2; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, i, paxos::kPrepare));
  for (std::uint32_t i = 0; i < 2; ++i)
    EXPECT_TRUE(deliver_one(cfg, l.nodes, l.flight, 0, paxos::kPrepareResponse));
  l.flight.clear();
  for (NodeId i = 0; i < n; ++i)
    EXPECT_TRUE(paxos::chosen_map_of(cfg, i, l.nodes[i]).empty());
  return l;
}

// --- 3-node scenarios (below the class-size threshold; plain checker) ------

TEST(PaxosScenarios, DuelingProposersAtThreeNodes) {
  // Two racing proposers, every interleaving of the prepare phase. Two
  // chain steps materialize 2.2M combinations and neither variant can
  // disagree that early — the scenario pins the no-false-positive side.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(3, bug);
    EXPECT_TRUE(cfg.symmetric_roles.empty());  // one non-proposer: no class
    Live live = build_duel_state(cfg, 3);
    LocalModelChecker mc(cfg, inv.get(), scenario_opt(2, /*reduce=*/false));
    mc.run(live.nodes, live.flight);
    ASSERT_TRUE(mc.stats().completed);
    EXPECT_EQ(mc.stats().system_states, 2202112u) << "bug=" << bug;
    EXPECT_EQ(mc.stats().confirmed_violations, 0u) << "bug=" << bug;
  }
}

TEST(PaxosScenarios, StalePromiseAtThreeNodes) {
  // The exact §5.5 experiment: proposer 1 wakes up against node0's
  // half-learned choice and the checker must FIND the bad interleaving.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(3, bug);
    Live live = build_stale_promise_state(cfg, 3);
    LocalModelChecker mc(cfg, inv.get(), scenario_opt(3, /*reduce=*/false));
    mc.run(live.nodes, live.flight);
    ASSERT_TRUE(mc.stats().completed);
    if (!bug) {
      EXPECT_EQ(mc.stats().confirmed_violations, 0u);
    } else {
      EXPECT_EQ(mc.stats().confirmed_violations, kStale3Depth3Confirmed);
      replay_all_confirmed(cfg, mc);
    }
  }
  // One chain step deeper the buggy variant's violation count grows 4 -> 60;
  // pinned so depth handling regressions show up as a count shift.
  SystemConfig buggy = duel_cfg(3, /*bug=*/true);
  Live live = build_stale_promise_state(buggy, 3);
  LocalModelChecker mc(buggy, inv.get(), scenario_opt(4, /*reduce=*/false));
  mc.run(live.nodes, live.flight);
  ASSERT_TRUE(mc.stats().completed);
  EXPECT_EQ(mc.stats().confirmed_violations, kStale3Depth4Confirmed);
}

TEST(PaxosScenarios, AcceptRaceAtThreeNodes) {
  // The fully staged second round: v2's Accepts landed, one Learn short of
  // disagreement. The buggy variant confirms violations immediately; the
  // correct one never does (it re-proposed v1, so both rounds agree).
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(3, bug);
    Live live = build_accept_race_state(cfg, 3);
    LocalModelChecker mc(cfg, inv.get(), scenario_opt(3, /*reduce=*/false));
    mc.run(live.nodes, live.flight);
    ASSERT_TRUE(mc.stats().completed);
    if (!bug) {
      EXPECT_EQ(mc.stats().confirmed_violations, 0u);
    } else {
      EXPECT_EQ(mc.stats().confirmed_violations, kAccept3Confirmed);
      replay_all_confirmed(cfg, mc);
    }
  }
}

// --- 5-node scenarios: reduced vs unreduced differential -------------------

struct ScenarioRuns {
  LocalMcStats plain;
  LocalMcStats reduced;
  SymmetryStats sym;
  std::vector<Hash64> plain_keys;
  std::vector<Hash64> reduced_keys;
};

// Run one 5-node scenario with the reduction off and on; the confirmed sets
// must agree up to acceptor permutation, the represented counter must cover
// the plain sweep, and the reduced run's witnesses must replay.
ScenarioRuns run_both(const SystemConfig& cfg, const Invariant* inv, const Live& live,
                      std::uint32_t chain_depth) {
  ScenarioRuns out;
  const std::vector<std::vector<NodeId>>& classes = cfg.symmetric_roles;

  LocalModelChecker plain(cfg, inv, scenario_opt(chain_depth, false));
  plain.run(live.nodes, live.flight);
  EXPECT_TRUE(plain.stats().completed);
  EXPECT_EQ(plain.stats().sym.active, 0u);
  out.plain = plain.stats();
  out.plain_keys = confirmed_canon_set(plain, classes);

  LocalModelChecker reduced(cfg, inv, scenario_opt(chain_depth, true));
  reduced.run(live.nodes, live.flight);
  EXPECT_TRUE(reduced.stats().completed);
  EXPECT_EQ(reduced.stats().sym.active, 1u) << "acceptor class should activate";
  out.reduced = reduced.stats();
  out.sym = reduced.stats().sym;
  out.reduced_keys = confirmed_canon_set(reduced, classes);

  EXPECT_EQ(out.plain_keys, out.reduced_keys)
      << "reduced and unreduced confirmed sets differ mod acceptor permutation";
  // The reduced sweep materializes exactly its orbits, and the represented
  // counter must account for at least every ordered combination the plain
  // sweep saw (it may exceed it: orbits count unordered members even when
  // per-member masks make some arrangements unreachable).
  EXPECT_EQ(out.reduced.system_states, out.sym.orbits);
  EXPECT_GE(out.sym.represented, out.plain.system_states);
  replay_all_confirmed(cfg, reduced);
  return out;
}

TEST(PaxosScenarios, DuelingProposersAtFiveNodesReduced) {
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    ASSERT_EQ(cfg.symmetric_roles.size(), 1u);
    ASSERT_EQ(cfg.symmetric_roles[0], (std::vector<NodeId>{2, 3, 4}));
    Live live = build_duel_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/2);
    EXPECT_EQ(r.plain.system_states, kDuel5Combos) << "bug=" << bug;
    EXPECT_EQ(r.reduced.system_states, kDuel5Orbits) << "bug=" << bug;
    EXPECT_EQ(r.plain.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_EQ(r.reduced.confirmed_violations, 0u) << "bug=" << bug;
  }
}

TEST(PaxosScenarios, StalePromiseAtFiveNodesReduced) {
  // The acceptor class {2,3,4} starts ASYMMETRIC here: acceptor 2 accepted
  // node0's value, 3 and 4 only promised. The canonicalizer's per-member
  // realizability masks must carry that distinction — a reduction treating
  // the class as fully interchangeable would invent or lose violations and
  // this differential would catch it.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    Live live = build_stale_promise_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/3);
    EXPECT_EQ(r.plain.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_EQ(r.reduced.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_LT(r.reduced.system_states, r.plain.system_states);
  }
}

TEST(PaxosScenarios, AcceptRaceAtFiveNodesReduced) {
  // The seeded-buggy 5-node headline: one chain step from the staged second
  // round, the ordered sweep confirms 3888 violating combinations and the
  // reduced sweep 1008 orbit representatives — same violation set modulo
  // acceptor permutation, every reduced witness replayed.
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    Live live = build_accept_race_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/1);
    EXPECT_EQ(r.plain.system_states, kAccept5Combos) << "bug=" << bug;
    EXPECT_EQ(r.reduced.system_states, kAccept5Orbits) << "bug=" << bug;
    if (!bug) {
      EXPECT_EQ(r.plain.confirmed_violations, 0u);
      EXPECT_EQ(r.reduced.confirmed_violations, 0u);
    } else {
      EXPECT_EQ(r.plain.confirmed_violations, kAccept5PlainConfirmed);
      EXPECT_EQ(r.reduced.confirmed_violations, kAccept5ReducedConfirmed);
      EXPECT_FALSE(r.plain_keys.empty());
    }
  }
}

TEST(PaxosScenarios, MinorityPartitionCannotDisagree) {
  // A partition alone must never produce disagreement: nothing was accepted,
  // so the healed network just lets proposer 1 choose cleanly — in the buggy
  // variant too (no stale accepted value exists to mis-prefer).
  auto inv = paxos::make_agreement_invariant();
  for (bool bug : {false, true}) {
    SystemConfig cfg = duel_cfg(5, bug);
    Live live = build_partition_state(cfg, 5);
    ScenarioRuns r = run_both(cfg, inv.get(), live, /*chain_depth=*/3);
    EXPECT_EQ(r.plain.system_states, kPart5Combos) << "bug=" << bug;
    EXPECT_EQ(r.reduced.system_states, kPart5Orbits) << "bug=" << bug;
    EXPECT_EQ(r.plain.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_EQ(r.reduced.confirmed_violations, 0u) << "bug=" << bug;
    EXPECT_TRUE(r.reduced_keys.empty());
  }
}

}  // namespace
}  // namespace lmc
