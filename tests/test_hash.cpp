// Hashing: stability, sensitivity and combiner properties. State identity
// is hash equality, so these invariants underpin every checker structure.
// Also the HashIndex behind LS_n, I+ and the orbit seen-set.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "runtime/hash.hpp"
#include "runtime/hash_index.hpp"
#include "runtime/message.hpp"

namespace lmc {
namespace {

TEST(Hash, EmptyAndStability) {
  Blob empty;
  EXPECT_EQ(hash_blob(empty), hash_blob(empty));
  Blob a{1, 2, 3};
  EXPECT_EQ(hash_blob(a), hash_blob(a));
}

TEST(Hash, SingleByteSensitivity) {
  Blob a{1, 2, 3, 4};
  Blob b{1, 2, 3, 5};
  EXPECT_NE(hash_blob(a), hash_blob(b));
}

TEST(Hash, LengthSensitivity) {
  Blob a{0, 0, 0};
  Blob b{0, 0};
  EXPECT_NE(hash_blob(a), hash_blob(b));
}

TEST(Hash, CombineOrderDependent) {
  EXPECT_NE(hash_combine(hash_combine(1, 2), 3), hash_combine(hash_combine(1, 3), 2));
}

TEST(Hash, CombineUnorderedCommutative) {
  Hash64 a = mix64(111), b = mix64(222), c = mix64(333);
  Hash64 h1 = hash_combine_unordered(hash_combine_unordered(0, a), b);
  Hash64 h2 = hash_combine_unordered(hash_combine_unordered(0, b), a);
  EXPECT_EQ(h1, h2);
  Hash64 h3 = hash_combine_unordered(hash_combine_unordered(hash_combine_unordered(0, a), b), c);
  Hash64 h4 = hash_combine_unordered(hash_combine_unordered(hash_combine_unordered(0, c), a), b);
  EXPECT_EQ(h3, h4);
}

TEST(Hash, NoCollisionsOnDistinctCorpus) {
  std::mt19937_64 rng(42);
  std::unordered_set<Hash64> seen;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    Blob b(8 + rng() % 32);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
    // Stamp a counter so every input is certainly distinct.
    b[0] = static_cast<std::uint8_t>(i);
    b[1] = static_cast<std::uint8_t>(i >> 8);
    b[2] = static_cast<std::uint8_t>(i >> 16);
    b[3] = 0x5a;
    seen.insert(hash_blob(b));
  }
  // 20k distinct inputs into a 64-bit hash: any collision means breakage.
  EXPECT_EQ(seen.size(), 20000u);
}

TEST(Hash, MessageHashCoversAllFields) {
  Message m;
  m.dst = 1;
  m.src = 2;
  m.type = 3;
  m.payload = {9};
  Message m2 = m;
  EXPECT_EQ(m.hash(), m2.hash());
  m2.dst = 5;
  EXPECT_NE(m.hash(), m2.hash());
  m2 = m;
  m2.src = 5;
  EXPECT_NE(m.hash(), m2.hash());
  m2 = m;
  m2.type = 5;
  EXPECT_NE(m.hash(), m2.hash());
  m2 = m;
  m2.payload = {10};
  EXPECT_NE(m.hash(), m2.hash());
}

TEST(Hash, InternalEventHashIncludesNode) {
  InternalEvent e{7, {1, 2}};
  EXPECT_NE(e.hash(0), e.hash(1));
  EXPECT_EQ(e.hash(3), e.hash(3));
}

TEST(Hash, InternalEventDistinctFromMessage) {
  // An internal event and a message should not trivially collide even with
  // similar content (the event hash is domain-separated).
  Message m;
  m.dst = 0;
  m.src = 0;
  m.type = 7;
  m.payload = {1, 2};
  InternalEvent e{7, {1, 2}};
  EXPECT_NE(m.hash(), e.hash(0));
}

TEST(Hash, GoldenValues) {
  // Identity hashes are persisted in checkpoints and witnesses and order the
  // soundness closures, so the function itself is pinned, not just its
  // stability within one build: a different hash fails here.
  EXPECT_EQ(hash_blob({}), 0xc3817c016ba4ff30ULL);
  EXPECT_EQ(hash_blob({1, 2, 3}), 0x87668959ade090f8ULL);
  Blob ramp(256);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(hash_blob(ramp), 0xf8247f1def37cd96ULL);
  Message m;
  m.dst = 1;
  m.src = 2;
  m.type = 3;
  m.payload = {4, 5, 6};
  EXPECT_EQ(m.hash(), 0x4f3b59985c0e21f3ULL);
  EXPECT_EQ((InternalEvent{7, {8}}.hash(9)), 0x04c63a62516ac76cULL);
}

// HashIndex (the suite keeps the name of the concurrent table it replaced)

TEST(ConcurrentHashIndex, InsertFindEraseBasics) {
  HashIndex idx;
  EXPECT_EQ(idx.find(42), HashIndex::kNotFound);
  EXPECT_FALSE(idx.contains(42));
  EXPECT_EQ(idx.insert_if_absent(42, 7), 7u);
  EXPECT_EQ(idx.insert_if_absent(42, 99), 7u) << "duplicate insert returns the existing value";
  EXPECT_EQ(idx.find(42), 7u);
  EXPECT_TRUE(idx.contains(42));
  EXPECT_EQ(idx.size(), 1u);

  // Key 0 is an ordinary key (emptiness is marked by the value).
  EXPECT_EQ(idx.find(0), HashIndex::kNotFound);
  EXPECT_EQ(idx.insert_if_absent(0, 3), 3u);
  EXPECT_EQ(idx.find(0), 3u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(ConcurrentHashIndex, GrowthChainsTablesWithoutLosingKeys) {
  // Push far past the first table, through many rehashes: every key keeps
  // its value, including keys that all share one home slot.
  HashIndex idx;
  constexpr std::uint32_t kKeys = 20000;
  constexpr std::uint32_t kColliding = 1000;
  for (std::uint32_t i = 0; i < kKeys; ++i)
    ASSERT_EQ(idx.insert_if_absent(0x9e3779b97f4a7c15ull * (i + 1), i), i);
  for (std::uint32_t i = 0; i < kColliding; ++i)
    ASSERT_EQ(idx.insert_if_absent(std::uint64_t{i + 1} << 32, kKeys + i), kKeys + i);
  EXPECT_EQ(idx.size(), kKeys + kColliding);
  for (std::uint32_t i = 0; i < kKeys; ++i)
    ASSERT_EQ(idx.find(0x9e3779b97f4a7c15ull * (i + 1)), i) << "key " << i;
  for (std::uint32_t i = 0; i < kColliding; ++i)
    ASSERT_EQ(idx.find(std::uint64_t{i + 1} << 32), kKeys + i) << "colliding key " << i;
  EXPECT_EQ(idx.find(0x9e3779b97f4a7c15ull * (kKeys + 1)), HashIndex::kNotFound);
}

}  // namespace
}  // namespace lmc
