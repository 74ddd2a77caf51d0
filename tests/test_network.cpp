// Network substrates: the classic in-flight set I and the monotonic I+.
#include <gtest/gtest.h>

#include "net/monotonic_network.hpp"
#include "net/network.hpp"
#include "net/sim_transport.hpp"

namespace lmc {
namespace {

Message mk(NodeId dst, NodeId src, std::uint32_t type, Blob payload = {}) {
  Message m;
  m.dst = dst;
  m.src = src;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

TEST(Network, AddAndTake) {
  Network net;
  EXPECT_TRUE(net.add(mk(1, 0, 7)));
  EXPECT_TRUE(net.add(mk(2, 0, 7)));
  EXPECT_EQ(net.size(), 2u);
  Message m = net.take(0);
  EXPECT_EQ(m.dst, 1u);
  EXPECT_EQ(net.size(), 1u);
  EXPECT_EQ(net.messages()[0].dst, 2u);
}

TEST(Network, DuplicateSuppression) {
  Network net;
  EXPECT_TRUE(net.add(mk(1, 0, 7)));
  EXPECT_FALSE(net.add(mk(1, 0, 7)));  // identical content
  EXPECT_EQ(net.size(), 1u);
  // After delivery the same content may be sent again (the suppression is
  // per in-flight set, not per history).
  net.take(0);
  EXPECT_TRUE(net.add(mk(1, 0, 7)));
}

TEST(Network, HashOrderIndependent) {
  Network a, b;
  a.add(mk(1, 0, 7));
  a.add(mk(2, 0, 8));
  b.add(mk(2, 0, 8));
  b.add(mk(1, 0, 7));
  EXPECT_EQ(a.hash(), b.hash());
  b.take(0);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Network, TakeOutOfRangeThrows) {
  Network net;
  EXPECT_THROW(net.take(0), std::out_of_range);
}

TEST(Network, AddAllReportsSuppressed) {
  Network net;
  std::vector<Message> batch{mk(1, 0, 7), mk(1, 0, 7), mk(2, 0, 7)};
  EXPECT_EQ(net.add_all(std::move(batch)), 1u);
  EXPECT_EQ(net.size(), 2u);
}

// I+ takes each message with its hash, which the checker computes where
// the message was produced.
bool add(MonotonicNetwork& net, const Message& m) { return net.add(m, m.hash()); }

TEST(MonotonicNetwork, AppendOnlyWithDedup) {
  MonotonicNetwork net;
  EXPECT_TRUE(add(net, mk(1, 0, 7)));
  EXPECT_FALSE(add(net, mk(1, 0, 7)));
  EXPECT_TRUE(add(net, mk(1, 0, 8)));
  EXPECT_EQ(net.size(), 2u);
  EXPECT_EQ(net.suppressed(), 1u);
}

TEST(MonotonicNetwork, CursorsStartAtZero) {
  MonotonicNetwork net;
  add(net, mk(1, 0, 7));
  EXPECT_EQ(net.at(0).next_state, 0u);
  net.at(0).next_state = 5;
  EXPECT_EQ(net.at(0).next_state, 5u);
}

TEST(MonotonicNetwork, RestoreRebuildsIndexAndCursors) {
  MonotonicNetwork orig;
  add(orig, mk(1, 0, 7));
  add(orig, mk(2, 0, 8));
  add(orig, mk(1, 0, 7));  // suppressed
  orig.at(1).next_state = 4;

  std::vector<MonotonicNetwork::Entry> entries = orig.snapshot_entries();
  MonotonicNetwork net = MonotonicNetwork::restore(std::move(entries), orig.suppressed());
  EXPECT_EQ(net.size(), 2u);
  EXPECT_EQ(net.suppressed(), 1u);
  EXPECT_EQ(net.at(1).next_state, 4u);
  EXPECT_TRUE(net.contains(mk(2, 0, 8).hash()));
  // Dedup still works against restored content.
  EXPECT_FALSE(add(net, mk(2, 0, 8)));
  EXPECT_EQ(net.suppressed(), 2u);
}

TEST(MonotonicNetwork, FindByHash) {
  MonotonicNetwork net;
  Message m = mk(2, 1, 9, {42});
  add(net, m);
  const Message* found = net.find(m.hash());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, m);
  EXPECT_EQ(net.find(12345), nullptr);
}

TEST(MonotonicNetwork, AllHashesInsertionOrder) {
  MonotonicNetwork net;
  Message a = mk(1, 0, 1), b = mk(2, 0, 2);
  add(net, a);
  add(net, b);
  auto hashes = net.all_hashes();
  ASSERT_EQ(hashes.size(), 2u);
  EXPECT_EQ(hashes[0], a.hash());
  EXPECT_EQ(hashes[1], b.hash());
}

TEST(SimTransport, LoopbackNeverDropped) {
  SimTransport t({1.0, 0.01, 0.05, 7});  // drop everything non-loopback
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(t.delivery_delay(mk(3, 3, 1)).has_value());
    EXPECT_FALSE(t.delivery_delay(mk(4, 3, 1)).has_value());
  }
  EXPECT_EQ(t.dropped(), 100u);
  EXPECT_EQ(t.sent(), 200u);
}

TEST(SimTransport, DropRateApproximatesConfig) {
  SimTransport t({0.3, 0.01, 0.05, 42});
  int dropped = 0;
  for (int i = 0; i < 10000; ++i)
    if (!t.delivery_delay(mk(1, 0, 1)).has_value()) ++dropped;
  EXPECT_NEAR(dropped / 10000.0, 0.3, 0.03);
}

TEST(SimTransport, LatencyWithinBounds) {
  SimTransport t({0.0, 0.010, 0.050, 5});
  for (int i = 0; i < 1000; ++i) {
    auto d = t.delivery_delay(mk(1, 0, 1));
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, 0.010);
    EXPECT_LE(*d, 0.050);
  }
}

TEST(SimTransport, DeterministicUnderSeed) {
  SimTransport a({0.3, 0.01, 0.05, 99});
  SimTransport b({0.3, 0.01, 0.05, 99});
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.delivery_delay(mk(1, 0, 1)), b.delivery_delay(mk(1, 0, 1)));
}

}  // namespace
}  // namespace lmc
