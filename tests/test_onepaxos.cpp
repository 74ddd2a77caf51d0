// 1Paxos + PaxosUtility (§5.6): protocol behaviour, the "++" initialization
// bug, leader change through the utility log, and the checker rediscovering
// the bug from the paper's live state.
#include <gtest/gtest.h>

#include <functional>

#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "protocols/onepaxos.hpp"

namespace lmc {
namespace {

using onepaxos::OnePaxosNode;
using onepaxos::Options;

const OnePaxosNode& as_node(const std::unique_ptr<StateMachine>& m) {
  return static_cast<const OnePaxosNode&>(*m);
}

void fire(const SystemConfig& cfg, std::vector<Blob>& nodes, NodeId n, std::uint32_t kind,
          Blob arg = {}) {
  ExecResult r = exec_internal(cfg, n, nodes[n], {kind, std::move(arg)});
  ASSERT_FALSE(r.assert_failed) << r.assert_msg;
  nodes[n] = std::move(r.state);
}

void fire_sending(const SystemConfig& cfg, std::vector<Blob>& nodes,
                  std::vector<Message>& flight, NodeId n, std::uint32_t kind) {
  ExecResult r = exec_internal(cfg, n, nodes[n], {kind, {}});
  ASSERT_FALSE(r.assert_failed) << r.assert_msg;
  nodes[n] = std::move(r.state);
  for (Message& m : r.sent) flight.push_back(std::move(m));
}

/// FIFO-deliver every in-flight message, discarding those matching `drop`.
void pump(const SystemConfig& cfg, std::vector<Blob>& nodes, std::vector<Message>& flight,
          const std::function<bool(const Message&)>& drop) {
  while (!flight.empty()) {
    Message m = flight.front();
    flight.erase(flight.begin());
    if (drop(m)) continue;
    ExecResult r = exec_message(cfg, m.dst, nodes[m.dst], m);
    ASSERT_FALSE(r.assert_failed) << r.assert_msg;
    nodes[m.dst] = std::move(r.state);
    for (Message& out : r.sent) flight.push_back(std::move(out));
  }
}

TEST(OnePaxos, CorrectInitSeparatesLeaderAndAcceptor) {
  SystemConfig cfg = onepaxos::make_config(3, Options{});
  auto nodes = initial_states(cfg);
  for (NodeId n = 0; n < 3; ++n) fire(cfg, nodes, n, onepaxos::kEvInit);
  for (NodeId n = 0; n < 3; ++n) {
    auto m = machine_from_blob(cfg, n, nodes[n]);
    EXPECT_EQ(as_node(m).leader(), 0u);
    EXPECT_EQ(as_node(m).acceptor(), 1u);  // ++members.begin(): second member
  }
}

TEST(OnePaxos, BuggyInitAliasesAcceptorToLeader) {
  SystemConfig cfg = onepaxos::make_config(3, Options{.bug_postincrement_init = true});
  auto nodes = initial_states(cfg);
  for (NodeId n = 0; n < 3; ++n) fire(cfg, nodes, n, onepaxos::kEvInit);
  for (NodeId n = 0; n < 3; ++n) {
    auto m = machine_from_blob(cfg, n, nodes[n]);
    EXPECT_EQ(as_node(m).leader(), 0u);
    EXPECT_EQ(as_node(m).acceptor(), 0u) << "*(members.begin()++) returns the first member";
  }
}

TEST(OnePaxos, SteadyStateProposalChoosesEverywhere) {
  // Correct variant: leader (node 0) proposes to acceptor (node 1); the
  // Learn broadcast makes everyone choose.
  SystemConfig cfg = onepaxos::make_config(3, Options{});
  auto nodes = initial_states(cfg);
  for (NodeId n = 0; n < 3; ++n) fire(cfg, nodes, n, onepaxos::kEvInit);
  std::vector<Message> flight;
  // Fire the enabled propose event (its arg carries the picked index).
  bool fired = false;
  for (const InternalEvent& ev : internal_events_of(cfg, 0, nodes[0])) {
    if (ev.kind == onepaxos::kEvPropose) {
      ExecResult r = exec_internal(cfg, 0, nodes[0], ev);
      ASSERT_FALSE(r.assert_failed);
      nodes[0] = std::move(r.state);
      for (Message& m : r.sent) flight.push_back(std::move(m));
      fired = true;
    }
  }
  ASSERT_TRUE(fired);
  pump(cfg, nodes, flight, [](const Message&) { return false; });
  for (NodeId n = 0; n < 3; ++n) {
    auto chosen = onepaxos::chosen_map_of(cfg, n, nodes[n]);
    ASSERT_EQ(chosen.size(), 1u);
    EXPECT_EQ(chosen[0], 1u);  // leader's value = id + 1
  }
}

TEST(OnePaxos, LeaderChangeThroughUtility) {
  SystemConfig cfg = onepaxos::make_config(3, Options{});
  auto nodes = initial_states(cfg);
  for (NodeId n = 0; n < 3; ++n) fire(cfg, nodes, n, onepaxos::kEvInit);
  std::vector<Message> flight;
  fire_sending(cfg, nodes, flight, 2, onepaxos::kEvSuspectLeader);
  pump(cfg, nodes, flight, [](const Message&) { return false; });

  auto m2 = machine_from_blob(cfg, 2, nodes[2]);
  EXPECT_EQ(as_node(m2).leader(), 2u);
  EXPECT_TRUE(as_node(m2).believes_leader());
  // New leader obtained the acceptor from the utility fallback: node 1.
  EXPECT_EQ(as_node(m2).acceptor(), 1u);
  // Everyone who learned the entry agrees on the leader.
  auto m0 = machine_from_blob(cfg, 0, nodes[0]);
  EXPECT_EQ(as_node(m0).leader(), 2u);
  EXPECT_FALSE(as_node(m0).believes_leader());
}

TEST(OnePaxos, UtilityLogIsRealPaxos) {
  // The utility layer runs the full Prepare/Accept/Learn protocol: its
  // chosen entries appear in the embedded PaxosCore.
  SystemConfig cfg = onepaxos::make_config(3, Options{});
  auto nodes = initial_states(cfg);
  for (NodeId n = 0; n < 3; ++n) fire(cfg, nodes, n, onepaxos::kEvInit);
  std::vector<Message> flight;
  fire_sending(cfg, nodes, flight, 2, onepaxos::kEvSuspectLeader);
  pump(cfg, nodes, flight, [](const Message&) { return false; });

  auto m1 = machine_from_blob(cfg, 1, nodes[1]);
  const auto& log = as_node(m1).utility().chosen_map();
  ASSERT_EQ(log.count(0), 1u);
  EXPECT_EQ(onepaxos::entry_kind(log.at(0)), onepaxos::EntryKind::LeaderChange);
  EXPECT_EQ(onepaxos::entry_node(log.at(0)), 2u);
}

// Build the §5.6 live state with the ++ bug: N3 (node 2) campaigns and wins
// leadership while every message to N1 (node 0) is dropped; the new leader
// proposes its value, chosen by nodes 1 and 2. Node 0 still believes it is
// the leader and its cached acceptor is itself (the bug).
std::vector<Blob> build_5_6_live_state(const SystemConfig& cfg) {
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  for (NodeId n = 0; n < 3; ++n) {
    ExecResult r = exec_internal(cfg, n, nodes[n], {onepaxos::kEvInit, {}});
    EXPECT_FALSE(r.assert_failed);
    nodes[n] = std::move(r.state);
  }
  auto drop_to_0 = [](const Message& m) { return m.dst == 0; };

  ExecResult r = exec_internal(cfg, 2, nodes[2], {onepaxos::kEvSuspectLeader, {}});
  EXPECT_FALSE(r.assert_failed);
  nodes[2] = std::move(r.state);
  for (Message& m : r.sent) flight.push_back(std::move(m));
  pump(cfg, nodes, flight, drop_to_0);

  // Node 2 is now leader with acceptor node 1; it proposes.
  auto evs = internal_events_of(cfg, 2, nodes[2]);
  bool proposed = false;
  for (const InternalEvent& ev : evs) {
    if (ev.kind == onepaxos::kEvPropose) {
      ExecResult rr = exec_internal(cfg, 2, nodes[2], ev);
      EXPECT_FALSE(rr.assert_failed);
      nodes[2] = std::move(rr.state);
      for (Message& m : rr.sent) flight.push_back(std::move(m));
      proposed = true;
    }
  }
  EXPECT_TRUE(proposed);
  pump(cfg, nodes, flight, drop_to_0);
  return nodes;
}

TEST(OnePaxos, Live56StateMatchesPaperScenario) {
  SystemConfig cfg = onepaxos::make_config(3, Options{.bug_postincrement_init = true});
  auto nodes = build_5_6_live_state(cfg);

  auto m0 = machine_from_blob(cfg, 0, nodes[0]);
  EXPECT_TRUE(as_node(m0).believes_leader()) << "N1 must still assume leadership";
  EXPECT_EQ(as_node(m0).acceptor(), 0u) << "N1's cached acceptor poisoned by the ++ bug";
  EXPECT_TRUE(as_node(m0).chosen_map().empty());

  for (NodeId n : {1u, 2u}) {
    auto chosen = onepaxos::chosen_map_of(cfg, n, nodes[n]);
    ASSERT_EQ(chosen.size(), 1u) << "node " << n;
    EXPECT_EQ(chosen[0], 3u);  // v3 = node2's id + 1
  }
}

TEST(OnePaxos, PlusPlusBugFoundFromLiveState) {
  SystemConfig cfg = onepaxos::make_config(3, Options{.bug_postincrement_init = true});
  auto inv = onepaxos::make_agreement_invariant();
  auto live = build_5_6_live_state(cfg);

  LocalMcOptions opt;
  opt.max_total_depth = 10;
  opt.use_projection = true;
  opt.time_budget_s = 60;
  LocalModelChecker mc(cfg, inv.get(), opt);
  mc.run(live, {});

  ASSERT_GE(mc.stats().confirmed_violations, 1u) << "the ++ bug must be rediscovered";
  const LocalViolation* v = mc.first_confirmed();
  ASSERT_NE(v, nullptr);

  // The violating state: node 0 chose v1 (its own value) for the index the
  // others chose v3 for.
  auto chosen0 = onepaxos::chosen_map_of(cfg, 0, v->system_state[0]);
  ASSERT_EQ(chosen0.count(0), 1u);
  EXPECT_EQ(chosen0[0], 1u);

  ReplayResult rep = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(),
                                     v->witness, mc.events(), v->state_hashes);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(OnePaxos, NoViolationWithoutTheBug) {
  SystemConfig cfg = onepaxos::make_config(3, Options{});
  auto inv = onepaxos::make_agreement_invariant();
  auto live = build_5_6_live_state(cfg);

  // The correct-variant space is large (cross-branch value mixes produce
  // masses of unsound preliminary violations — the regime §4.3 warns
  // about); bound depth and transitions and assert there is NO false
  // positive in everything that was checked. The first cross-branch
  // conflicts surface at transition 106,194, whose sweep alone emits
  // thousands of preliminary violations; the cap stops right after it.
  constexpr std::uint64_t kCap = 106'194;
  LocalMcOptions opt;
  opt.max_total_depth = 8;
  opt.use_projection = true;
  opt.max_transitions = kCap;
  LocalModelChecker mc(cfg, inv.get(), opt);
  mc.run(live, {});
  EXPECT_TRUE(mc.stats().completed || mc.stats().transitions >= kCap)
      << "the search must end on its bounds, never on the clock";
  EXPECT_EQ(mc.stats().confirmed_violations, 0u)
      << "correct init routes node 0's proposal to the real acceptor";
  EXPECT_GT(mc.stats().prelim_violations, 0u)
      << "cross-branch combinations should at least LOOK violating";
}

TEST(OnePaxos, SerializationRoundTrip) {
  SystemConfig cfg = onepaxos::make_config(3, Options{.bug_postincrement_init = true});
  auto nodes = build_5_6_live_state(cfg);
  for (NodeId n = 0; n < 3; ++n) {
    auto m = machine_from_blob(cfg, n, nodes[n]);
    EXPECT_EQ(machine_to_blob(*m), nodes[n]) << "node " << n;
  }
}

TEST(OnePaxos, InsistingProposerGetsExistingValue) {
  // A second Propose for a decided index re-announces the old value (the
  // §4.2 repeated-Chosen pattern).
  SystemConfig cfg = onepaxos::make_config(3, Options{});
  auto nodes = initial_states(cfg);
  for (NodeId n = 0; n < 3; ++n) fire(cfg, nodes, n, onepaxos::kEvInit);

  Writer w;
  w.u64(0);
  Message propose1;
  propose1.dst = 1;
  propose1.src = 0;
  propose1.type = onepaxos::kMsgPropose;
  {
    Writer pw;
    pw.u64(0);
    pw.u64(111);
    propose1.payload = std::move(pw).take();
  }
  ExecResult r1 = exec_message(cfg, 1, nodes[1], propose1);
  nodes[1] = std::move(r1.state);
  ASSERT_EQ(r1.sent.size(), 3u);

  Message propose2 = propose1;
  {
    Writer pw;
    pw.u64(0);
    pw.u64(222);  // different value, same index
    propose2.payload = std::move(pw).take();
  }
  ExecResult r2 = exec_message(cfg, 1, nodes[1], propose2);
  ASSERT_EQ(r2.sent.size(), 3u);
  Reader lr(r2.sent[0].payload);
  EXPECT_EQ(lr.u64(), 0u);    // index
  EXPECT_EQ(lr.u64(), 111u);  // the FIRST accepted value is re-announced
}

}  // namespace
}  // namespace lmc
