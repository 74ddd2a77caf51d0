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

}  // namespace
}  // namespace lmc
