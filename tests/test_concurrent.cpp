// The tables behind the work-stealing phase 1 (DESIGN.md §12): SegLog's
// one-producer publication under concurrent readers, the single-writer
// HashIndex, and ExplorePipeline order/error/backlog semantics. The
// reader storm and the pipeline tests are TSan targets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mc/concurrent/pipeline.hpp"
#include "mc/concurrent/segmented_log.hpp"
#include "runtime/hash_index.hpp"

namespace lmc::concurrent {
namespace {

// ---------------------------------------------------------------------------
// SegLog

TEST(SegLog, SingleProducerBasics) {
  SegLog<int> log;
  EXPECT_TRUE(log.empty());
  for (int i = 0; i < 500; ++i) EXPECT_EQ(log.push_back(i * 3), static_cast<std::uint64_t>(i));
  ASSERT_EQ(log.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) EXPECT_EQ(log[i], static_cast<int>(i) * 3);

  // Addresses are stable across growth: remember one, push far past it.
  const int* p = &log[7];
  for (int i = 0; i < 5000; ++i) log.push_back(i);
  EXPECT_EQ(p, &log[7]) << "a committed element must never move";
  EXPECT_EQ(log.mut(7), 21);
  log.mut(7) = -1;
  EXPECT_EQ(log[7], -1);
}

TEST(SegLog, CopyAndMoveKeepTheCommittedPrefix) {
  SegLog<std::string> log;
  for (int i = 0; i < 100; ++i) log.push_back("v" + std::to_string(i));
  SegLog<std::string> copy(log);
  ASSERT_EQ(copy.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(copy[i], log[i]);
  copy.push_back("tail");
  EXPECT_EQ(log.size(), 100u) << "copies are independent";

  SegLog<std::string> moved(std::move(copy));
  ASSERT_EQ(moved.size(), 101u);
  EXPECT_EQ(moved[100], "tail");
  SegLog<std::string> assigned;
  assigned = log;
  ASSERT_EQ(assigned.size(), 100u);
  EXPECT_EQ(assigned[99], "v99");
}

TEST(SegLog, OneProducerWithConcurrentReaders) {
  // One producer appends while 3 readers scan below size(): every index a
  // reader can see must already hold its final value (size() is published
  // only after the element is built).
  constexpr std::uint64_t kTotal = 40000;
  SegLog<std::uint64_t> log;
  std::atomic<bool> bad{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t n = 0;
      while (n < kTotal && !bad.load(std::memory_order_relaxed)) {
        n = log.size();
        for (std::uint64_t i = 0; i < n; ++i)
          if (log[i] != i * 7 + 1) {
            bad.store(true, std::memory_order_relaxed);
            break;
          }
      }
    });
  }
  for (std::uint64_t i = 0; i < kTotal; ++i) log.push_back(i * 7 + 1);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(bad.load()) << "a reader saw an unbuilt element below size()";
  ASSERT_EQ(log.size(), kTotal);
}

// ---------------------------------------------------------------------------
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

// ---------------------------------------------------------------------------
// ExplorePipeline

using IntPipe = ExplorePipeline<int, int>;

std::vector<int> drain_all(IntPipe& pipe) {
  std::vector<int> out;
  while (pipe.have_pending()) {
    IntPipe::Slot& s = pipe.front();
    if (s.error) std::rethrow_exception(s.error);
    out.insert(out.end(), s.execs.begin(), s.execs.end());
    pipe.pop();
  }
  return out;
}

TEST(ExplorePipeline, ConsumesInPublicationOrderAtAnyWorkerCount) {
  auto fn = [](const int& t) { return std::vector<int>{t * 2, t * 2 + 1}; };
  std::vector<int> expected;
  for (int i = 0; i < 500; ++i) {
    expected.push_back(i * 2);
    expected.push_back(i * 2 + 1);
  }
  for (std::uint32_t workers : {0u, 7u}) {
    IntPipe pipe(workers, fn);
    for (int i = 0; i < 500; ++i) EXPECT_EQ(pipe.publish(i), static_cast<std::uint64_t>(i));
    EXPECT_EQ(drain_all(pipe), expected) << workers << " workers";
    EXPECT_EQ(pipe.consumed_count(), 500u);
    pipe.stop_and_join();
  }
}

TEST(ExplorePipeline, InterleavedPublishConsumeStreams) {
  // The checker's real shape: publish a generation, consume while workers
  // run ahead, publish the next generation from what was consumed.
  auto fn = [](const int& t) { return std::vector<int>{t}; };
  IntPipe pipe(3, fn);
  std::vector<int> seen;
  int next = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) pipe.publish(next++);
    while (pipe.have_pending()) {
      IntPipe::Slot& s = pipe.front();
      ASSERT_EQ(s.error, nullptr);
      seen.insert(seen.end(), s.execs.begin(), s.execs.end());
      pipe.pop();
    }
  }
  ASSERT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(seen[static_cast<std::size_t>(i)], i);
  pipe.stop_and_join();
}

TEST(ExplorePipeline, BacklogTasksAreTheUnconsumedTailInOrder) {
  auto fn = [](const int& t) { return std::vector<int>{t}; };
  IntPipe pipe(0, fn);
  for (int i = 0; i < 10; ++i) pipe.publish(i);
  for (int i = 0; i < 4; ++i) {
    pipe.front();
    pipe.pop();
  }
  const std::vector<int> tail = pipe.backlog_tasks();
  ASSERT_EQ(tail.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(tail[static_cast<std::size_t>(i)], i + 4);
}

TEST(ExplorePipeline, ErrorsSurfaceAtConsumeTimeInOrder) {
  auto fn = [](const int& t) -> std::vector<int> {
    if (t == 13) throw std::runtime_error("task 13 failed");
    return {t};
  };
  for (std::uint32_t workers : {0u, 7u}) {
    IntPipe pipe(workers, fn);
    for (int i = 0; i < 20; ++i) pipe.publish(i);
    int consumed = 0;
    bool threw = false;
    while (pipe.have_pending()) {
      IntPipe::Slot& s = pipe.front();
      if (s.error) {
        EXPECT_EQ(consumed, 13) << "errors must surface in publication order";
        EXPECT_THROW(std::rethrow_exception(s.error), std::runtime_error);
        threw = true;
        pipe.pop();
        ++consumed;
        continue;  // the pipeline itself survives an error slot
      }
      ASSERT_EQ(s.execs.size(), 1u);
      ASSERT_EQ(s.execs[0], consumed);
      pipe.pop();
      ++consumed;
    }
    EXPECT_TRUE(threw) << workers << " workers";
    EXPECT_EQ(consumed, 20);
    pipe.stop_and_join();
  }
}

TEST(ExplorePipeline, CountDroppedErrorsSeesEveryUnconsumedFailure) {
  // Every task throws. After workers finish them all, the unconsumed range
  // holds 8 READY error slots; an aborting applier rethrows the first and
  // accounts the other 7 (the checker's kWorkerError path).
  auto fn = [](const int&) -> std::vector<int> { throw std::runtime_error("boom"); };
  IntPipe pipe(7, fn);
  for (int i = 0; i < 8; ++i) pipe.publish(i);
  while (pipe.count_dropped_errors() < 8) std::this_thread::yield();
  pipe.stop_and_join();
  EXPECT_EQ(pipe.count_dropped_errors(), 8u);
  IntPipe::Slot& s = pipe.front();
  EXPECT_NE(s.error, nullptr);
  EXPECT_EQ(pipe.count_dropped_errors() - 1, 7u) << "secondary errors beyond the rethrown front";
}

TEST(ExplorePipeline, StopAndJoinIsIdempotentAndDtorSafeWithBacklog) {
  auto fn = [](const int& t) { return std::vector<int>{t}; };
  auto pipe = std::make_unique<IntPipe>(4, fn);
  for (int i = 0; i < 100; ++i) pipe->publish(i);
  pipe->stop_and_join();
  pipe->stop_and_join();  // idempotent
  // Destruction with a partially executed backlog must not leak or hang
  // (ASan/TSan builds verify the "not leak" half).
  pipe.reset();
}

}  // namespace
}  // namespace lmc::concurrent
