// Soundness verification unit tests on hand-built LocalStore graphs —
// isolating isStateSound (Fig. 9, §4.2) from exploration.
#include <gtest/gtest.h>

#include "mc/local_store.hpp"
#include "mc/soundness.hpp"

namespace lmc {
namespace {

// Builders for a synthetic 2-node store. Node states are dummies; only
// hashes, preds and generated-message hashes matter to the verifier.
NodeStateRec state(Hash64 h, std::uint32_t depth) {
  NodeStateRec r;
  r.blob = {static_cast<std::uint8_t>(h)};
  r.hash = h;
  r.depth = depth;
  return r;
}

Pred msg_edge(std::uint32_t from, Hash64 msg, std::vector<Hash64> gen = {}) {
  return Pred{from, true, msg, std::move(gen)};
}

Pred internal_edge(std::uint32_t from, Hash64 ev, std::vector<Hash64> gen = {}) {
  return Pred{from, false, ev, std::move(gen)};
}

TEST(Soundness, InitialComboTriviallySound) {
  LocalStore store(2);
  store.add(0, state(10, 0));
  store.add(1, state(20, 0));
  SoundnessVerifier v(store, {}, {});
  auto res = v.verify({0, 0});
  EXPECT_TRUE(res.sound);
  EXPECT_TRUE(res.schedule.empty());
}

TEST(Soundness, InternalEventsAlwaysEnabled) {
  LocalStore store(1);
  store.add(0, state(10, 0));
  NodeStateRec s1 = state(11, 1);
  s1.preds.push_back(internal_edge(0, 0xE1));
  store.add(0, std::move(s1));
  SoundnessVerifier v(store, {}, {});
  auto res = v.verify({1});
  ASSERT_TRUE(res.sound);
  ASSERT_EQ(res.schedule.size(), 1u);
  EXPECT_FALSE(res.schedule[0].is_message);
  EXPECT_EQ(res.schedule[0].ev_hash, 0xE1u);
}

TEST(Soundness, NetworkEventNeedsGeneratedMessage) {
  // Node 1 received message M, but nothing generated M: unsound.
  LocalStore store(2);
  store.add(0, state(10, 0));
  store.add(1, state(20, 0));
  NodeStateRec s1 = state(21, 1);
  s1.preds.push_back(msg_edge(0, 0xAB));
  store.add(1, std::move(s1));
  SoundnessVerifier v(store, {}, {});
  EXPECT_FALSE(v.verify({0, 1}).sound);
}

TEST(Soundness, CausalChainAcrossNodes) {
  // Node 0: internal event E generates message M; node 1: receives M.
  LocalStore store(2);
  store.add(0, state(10, 0));
  store.add(1, state(20, 0));
  NodeStateRec s0 = state(11, 1);
  s0.preds.push_back(internal_edge(0, 0xE1, {0xAB}));
  store.add(0, std::move(s0));
  NodeStateRec s1 = state(21, 1);
  s1.preds.push_back(msg_edge(0, 0xAB));
  store.add(1, std::move(s1));

  SoundnessVerifier v(store, {}, {});
  // Both advanced: valid, and the schedule is causally ordered.
  auto res = v.verify({1, 1});
  ASSERT_TRUE(res.sound);
  ASSERT_EQ(res.schedule.size(), 2u);
  EXPECT_EQ(res.schedule[0].node, 0u);
  EXPECT_EQ(res.schedule[1].node, 1u);

  // Node 1 advanced but node 0 (the generator) still at its root: invalid
  // — the message was never produced in this combination.
  EXPECT_FALSE(v.verify({0, 1}).sound);
}

TEST(Soundness, InitialInFlightMessagesAreAvailable) {
  // The same "receive M with no generator" combo becomes valid when M was
  // in flight in the live snapshot.
  LocalStore store(2);
  store.add(0, state(10, 0));
  store.add(1, state(20, 0));
  NodeStateRec s1 = state(21, 1);
  s1.preds.push_back(msg_edge(0, 0xAB));
  store.add(1, std::move(s1));

  SoundnessVerifier with_flight(store, {0xAB}, {});
  EXPECT_TRUE(with_flight.verify({0, 1}).sound);
  SoundnessVerifier without(store, {}, {});
  EXPECT_FALSE(without.verify({0, 1}).sound);
}

TEST(Soundness, MessageConsumedOnlyOnce) {
  // Two distinct node-1 chains both consuming the single in-flight M — a
  // node CAN only consume it once per run; two consumptions in one
  // sequence must fail.
  LocalStore store(1);
  store.add(0, state(10, 0));
  NodeStateRec s1 = state(11, 1);
  s1.preds.push_back(msg_edge(0, 0xAB));
  store.add(0, std::move(s1));
  NodeStateRec s2 = state(12, 2);
  s2.preds.push_back(msg_edge(1, 0xAB));  // consumes M again
  store.add(0, std::move(s2));

  SoundnessVerifier v(store, {0xAB}, {});
  EXPECT_TRUE(v.verify({1}).sound);
  EXPECT_FALSE(v.verify({2}).sound) << "single in-flight message consumed twice";
  SoundnessVerifier v2(store, {0xAB, 0xAB}, {});
  EXPECT_TRUE(v2.verify({2}).sound) << "two copies in flight allow both deliveries";
}

TEST(Soundness, MultiplePredecessorPathsOneValid) {
  // State reachable two ways: via an unproducible message OR via an
  // internal event. The verifier must find the valid alternative.
  LocalStore store(1);
  store.add(0, state(10, 0));
  NodeStateRec s1 = state(11, 1);
  s1.preds.push_back(msg_edge(0, 0xDEAD));   // no generator: invalid path
  s1.preds.push_back(internal_edge(0, 0xE7));  // valid path
  store.add(0, std::move(s1));
  SoundnessVerifier v(store, {}, {});
  auto res = v.verify({1});
  EXPECT_TRUE(res.sound);
  EXPECT_GE(res.schedules_checked, 1u);
}

TEST(Soundness, CyclicPredecessorsDoNotHang) {
  // s1 -> s2 -> s1 cycle plus a valid entry; enumeration must terminate.
  LocalStore store(1);
  store.add(0, state(10, 0));
  NodeStateRec s1 = state(11, 1);
  s1.preds.push_back(internal_edge(0, 0xE1));
  store.add(0, std::move(s1));
  NodeStateRec s2 = state(12, 2);
  s2.preds.push_back(internal_edge(1, 0xE2));
  store.add(0, std::move(s2));
  // Close the cycle: s1 also reachable from s2.
  store.rec(0, 1).preds.push_back(internal_edge(2, 0xE3));

  SoundnessVerifier v(store, {}, {});
  auto res = v.verify({2});
  EXPECT_TRUE(res.sound);
}

TEST(Soundness, SelfLoopGeneratesMissingMessage) {
  // Node 0 stays in its initial state but a recorded self-loop (relay)
  // generates M; node 1's chain consumes M. Valid only thanks to the
  // self-loop extension.
  LocalStore store(2);
  store.add(0, state(10, 0));
  store.rec(0, 0).self_loops.push_back(msg_edge(0, 0xAA, {0xBB}));
  store.add(1, state(20, 0));
  NodeStateRec s1 = state(21, 1);
  s1.preds.push_back(msg_edge(0, 0xBB));
  store.add(1, std::move(s1));

  // The relay's own input 0xAA must itself be available (initial in-flight).
  SoundnessVerifier v(store, {0xAA}, {});
  auto res = v.verify({0, 1});
  ASSERT_TRUE(res.sound);
  ASSERT_EQ(res.schedule.size(), 2u);  // self-loop fire + delivery
  SoundnessVerifier v2(store, {}, {});
  EXPECT_FALSE(v2.verify({0, 1}).sound) << "self-loop input not available";
}

TEST(Soundness, ScheduleRespectsMessageCausality) {
  // Three-node relay chain: 0 generates M1 (internal), 1 consumes M1 and
  // generates M2, 2 consumes M2. Any valid schedule is the causal order.
  LocalStore store(3);
  for (NodeId n = 0; n < 3; ++n) store.add(n, state(10 * (n + 1), 0));
  NodeStateRec a = state(11, 1);
  a.preds.push_back(internal_edge(0, 0xE1, {0x111}));
  store.add(0, std::move(a));
  NodeStateRec b = state(21, 1);
  b.preds.push_back(msg_edge(0, 0x111, {0x222}));
  store.add(1, std::move(b));
  NodeStateRec c = state(31, 1);
  c.preds.push_back(msg_edge(0, 0x222));
  store.add(2, std::move(c));

  SoundnessVerifier v(store, {}, {});
  auto res = v.verify({1, 1, 1});
  ASSERT_TRUE(res.sound);
  ASSERT_EQ(res.schedule.size(), 3u);
  EXPECT_EQ(res.schedule[0].node, 0u);
  EXPECT_EQ(res.schedule[1].node, 1u);
  EXPECT_EQ(res.schedule[2].node, 2u);

  // Partial combos must degrade gracefully: node2 advanced without node1.
  EXPECT_FALSE(v.verify({1, 0, 1}).sound);
  EXPECT_TRUE(v.verify({1, 1, 0}).sound);
}

// A long-lived engine synced the way the checker syncs it must answer
// exactly like a verifier built fresh on the grown store: cached closures
// and feasibility verdicts are dropped when a node's graph moves.
TEST(Soundness, EngineFollowsStoreGrowth) {
  LocalStore store(2);
  store.add(0, state(10, 0));
  NodeStateRec s1 = state(11, 1);
  s1.preds.push_back(internal_edge(0, 0xE1, {0xA1}));  // node 0 sends A1
  store.add(0, std::move(s1));
  store.add(1, state(20, 0));
  NodeStateRec t1 = state(21, 1);
  t1.preds.push_back(msg_edge(0, 0xA2));  // A2: nothing sends it
  store.add(1, std::move(t1));
  NodeStateRec t2 = state(22, 2);
  t2.preds.push_back(msg_edge(1, 0xA3));  // A3: nothing sends it yet
  store.add(1, std::move(t2));
  const std::vector<Hash64> in_flight{0xF0};
  const std::uint64_t full = SoundnessOptions{}.max_schedules;

  auto edges = [&](NodeId n) {
    std::uint64_t e = 0;
    for (std::uint32_t i = 0; i < store.size(n); ++i)
      e += store.rec(n, i).preds.size() + store.rec(n, i).self_loops.size();
    return e;
  };
  auto note_all = [&](SoundnessEngine& eng) {
    for (NodeId n = 0; n < store.num_nodes(); ++n)
      for (std::uint32_t i = 0; i < store.size(n); ++i) {
        for (const Pred& p : store.rec(n, i).preds)
          for (Hash64 g : p.gen) eng.note_generated(n, g);
        for (const Pred& p : store.rec(n, i).self_loops)
          for (Hash64 g : p.gen) eng.note_generated(n, g);
      }
  };
  SoundnessEngine engine(store, in_flight);
  auto sync = [&]() {
    note_all(engine);  // only new (node, message) pairs count
    for (NodeId n = 0; n < store.num_nodes(); ++n) engine.sync(n, edges(n));
  };
  auto check_all = [&](const char* step) {
    SCOPED_TRACE(step);
    SoundnessEngine fresh(store, in_flight);
    note_all(fresh);
    for (NodeId n = 0; n < store.num_nodes(); ++n) fresh.sync(n, edges(n));
    for (NodeId n = 0; n < store.num_nodes(); ++n)
      for (std::uint32_t t = 0; t < store.size(n); ++t)
        EXPECT_EQ(engine.feasible(n, t), fresh.feasible(n, t)) << "node " << n << " state " << t;
    for (std::uint64_t cap : {std::uint64_t{1}, full}) {
      SoundnessOptions opt;
      opt.max_schedules = cap;
      const SoundnessVerifier verifier(store, in_flight, opt);
      for (std::uint32_t a = 0; a < store.size(0); ++a)
        for (std::uint32_t b = 0; b < store.size(1); ++b)
          for (unsigned mask = 0; mask < 4; ++mask) {
            const std::vector<bool> fixed{(mask & 1) != 0, (mask & 2) != 0};
            std::vector<std::uint32_t> combo{a, b};
            const SoundnessResult want = verifier.verify(combo, &fixed);
            for (NodeId n = 0; n < 2; ++n)
              if (!fixed[n]) combo[n] = kFreeNode;
            const SoundnessResult got = engine.verify(combo, cap);
            SCOPED_TRACE(::testing::Message() << "combo " << a << "," << b << " mask " << mask
                                              << " cap " << cap);
            EXPECT_EQ(got.sound, want.sound);
            EXPECT_EQ(got.truncated, want.truncated);
            EXPECT_EQ(got.schedules_checked, want.schedules_checked);
            EXPECT_EQ(got.final_combo, want.final_combo);
            ASSERT_EQ(got.schedule.size(), want.schedule.size());
            for (std::size_t k = 0; k < got.schedule.size(); ++k) {
              EXPECT_EQ(got.schedule[k].node, want.schedule[k].node);
              EXPECT_EQ(got.schedule[k].is_message, want.schedule[k].is_message);
              EXPECT_EQ(got.schedule[k].ev_hash, want.schedule[k].ev_hash);
            }
          }
    }
  };

  sync();
  check_all("initial store");
  EXPECT_FALSE(engine.verify({1, 1}, full).sound);

  // A new state: node 0 moves on from s1 without sending.
  NodeStateRec s2 = state(12, 2);
  s2.preds.push_back(internal_edge(1, 0xE2));
  store.add(0, std::move(s2));
  sync();
  check_all("new state");
  EXPECT_FALSE(engine.verify({1, 1}, full).sound);

  // A new pred edge on an existing state: t1 is also reached by receiving
  // A1, which node 0 sends. (s1, t1) turns sound — a mid-run unsound
  // verdict is only provisional.
  store.rec(1, 1).preds.push_back(msg_edge(0, 0xA1));
  sync();
  check_all("new pred edge");
  EXPECT_TRUE(engine.verify({1, 1}, full).sound);
  EXPECT_FALSE(engine.feasible(1, 2));

  // A new self-loop that sends the missing A3: t2 becomes reachable.
  store.rec(0, 2).self_loops.push_back(msg_edge(2, 0xF0, {0xA3}));
  sync();
  check_all("new self-loop");
  EXPECT_TRUE(engine.feasible(1, 2));
  EXPECT_TRUE(engine.verify({2, 2}, full).sound);
}

}  // namespace
}  // namespace lmc
