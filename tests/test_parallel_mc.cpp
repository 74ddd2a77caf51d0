// The parallel machinery: the persistent WorkerPool (exception
// propagation, reuse), thread-count determinism of full checker runs on the
// GEN and OPT paths, the pinned soundness search outcome on the §5.5
// workload, phase-1 handler errors in publication order, the
// resumed-past-budget guard, checkpoint-write failures, and the I+
// registration of messages sent by handlers whose local assert fails
// (addNextState order, Fig. 9).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "dfuzz/oracle.hpp"
#include "mc/local_mc.hpp"
#include "mc/parallel_local_mc.hpp"
#include "mc/replay.hpp"
#include "online/live_runner.hpp"
#include "persist/checkpoint.hpp"
#include "protocols/election.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.width(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossJobs) {
  WorkerPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(WorkerPool, WorkerExceptionRethrownOnCaller) {
  // Before the pool, a throwing task crossed the std::thread boundary and
  // std::terminate'd the whole process.
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(64,
               [&](std::size_t i) {
                 if (i == 7) throw std::runtime_error("task 7 failed");
               }),
      std::runtime_error);
}

TEST(WorkerPool, UsableAfterException) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(16, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.run(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST(WorkerPool, ExceptionShortCircuitsRemainingTasks) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(100000,
                        [&](std::size_t) {
                          ran.fetch_add(1);
                          throw std::runtime_error("first");
                        }),
               std::runtime_error);
  // Once the first exception lands, the remaining indices are abandoned.
  EXPECT_LT(ran.load(), 100000);
}

TEST(WorkerPool, SecondaryExceptionsAreCountedNotLost) {
  // When several workers throw in one fan-out, only the first exception
  // crosses run(); the rest must be COUNTED instead of vanishing. The
  // barrier guarantees both tasks are mid-flight before either throws.
  WorkerPool pool(4);
  EXPECT_EQ(pool.dropped_exceptions(), 0u);
  std::atomic<int> at_barrier{0};
  auto both_throw = [&](std::size_t i) {
    at_barrier.fetch_add(1);
    while (at_barrier.load() < 2) std::this_thread::yield();
    throw std::runtime_error("worker " + std::to_string(i) + " failed");
  };
  EXPECT_THROW(pool.run(2, both_throw), std::runtime_error);
  EXPECT_EQ(pool.dropped_exceptions(), 1u) << "one rethrown, one counted";

  // The counter accumulates across jobs on the same pool.
  at_barrier.store(0);
  EXPECT_THROW(pool.run(2, both_throw), std::runtime_error);
  EXPECT_EQ(pool.dropped_exceptions(), 2u);
}

// ---------------------------------------------------------------------------
// ParallelFor: WorkerPool::run as a parallel for loop at its edges — many
// lanes, one lane, no or one task, more lanes than tasks, throwing tasks.

TEST(ParallelFor, CoversAllIndicesOnce) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadDegenerates) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.width(), 1u);
  std::vector<int> order;
  pool.run(10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);  // a plain loop on the caller: strictly in order
}

TEST(ParallelFor, ZeroAndOneElements) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  pool.run(0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.run(1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  WorkerPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptionsInsteadOfTerminating) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(32,
                        [](std::size_t i) {
                          if (i % 2 == 0) throw std::runtime_error("even index");
                        }),
               std::runtime_error);
  // The 1-lane path throws from the plain loop on the caller.
  WorkerPool one(1);
  EXPECT_THROW(one.run(4, [](std::size_t) { throw std::runtime_error("seq"); }),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Tiny ring protocol (GEN path): every node may fire `max_inc` internal
// increments, each pinging the next node; receiving a ping bumps `pings`.

constexpr std::uint32_t kEvInc = 1;
constexpr std::uint32_t kMsgPing = 7;

class CounterNode final : public StateMachine {
 public:
  CounterNode(NodeId self, std::uint32_t n, std::uint32_t max_inc)
      : self_(self), n_(n), max_inc_(max_inc) {}

  void handle_message(const Message& m, Context& ctx) override {
    ctx.local_assert(m.type == kMsgPing, "counter: unknown message");
    if (m.type == kMsgPing) ++pings_;
  }
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (incs_ < max_inc_) {
      Writer w;
      w.u32(incs_);
      return {InternalEvent{kEvInc, std::move(w).take()}};
    }
    return {};
  }
  void handle_internal(const InternalEvent& ev, Context& ctx) override {
    ctx.local_assert(ev.kind == kEvInc, "counter: unknown event");
    ++incs_;
    Writer w;
    w.u32(self_);
    w.u32(incs_);
    ctx.send((self_ + 1) % n_, kMsgPing, std::move(w).take());
  }
  void serialize(Writer& w) const override {
    w.u32(incs_);
    w.u32(pings_);
  }
  void deserialize(Reader& r) override {
    incs_ = r.u32();
    pings_ = r.u32();
  }

 private:
  NodeId self_;
  std::uint32_t n_;
  std::uint32_t max_inc_;
  std::uint32_t incs_ = 0;
  std::uint32_t pings_ = 0;
};

SystemConfig counter_cfg(std::uint32_t n, std::uint32_t max_inc) {
  SystemConfig cfg;
  cfg.num_nodes = n;
  cfg.factory = [max_inc](NodeId self, std::uint32_t num) {
    return std::make_unique<CounterNode>(self, num, max_inc);
  };
  return cfg;
}

class PingLimitInvariant final : public Invariant {
 public:
  explicit PingLimitInvariant(std::uint32_t limit) : limit_(limit) {}
  std::string name() const override { return "counter.ping_limit"; }
  bool holds(const SystemConfig&, const SystemStateView& sys) const override {
    std::uint32_t total = 0;
    for (const Blob* b : sys) {
      Reader r(*b);
      r.u32();  // incs
      total += r.u32();
    }
    return total < limit_;
  }

 private:
  std::uint32_t limit_;
};

// ---------------------------------------------------------------------------
// Thread-count determinism: the merge protocol promises byte-identical
// results for any thread count. Compare FULL runs — stores, counters,
// violations including witness schedules.

void expect_identical_runs(const LocalModelChecker& a, const LocalModelChecker& b,
                           std::uint32_t num_nodes) {
  const LocalMcStats& sa = a.stats();
  const LocalMcStats& sb = b.stats();
  EXPECT_EQ(sa.transitions, sb.transitions);
  EXPECT_EQ(sa.node_states, sb.node_states);
  EXPECT_EQ(sa.system_states, sb.system_states);
  EXPECT_EQ(sa.invariant_checks, sb.invariant_checks);
  EXPECT_EQ(sa.prelim_violations, sb.prelim_violations);
  EXPECT_EQ(sa.confirmed_violations, sb.confirmed_violations);
  EXPECT_EQ(sa.unsound_violations, sb.unsound_violations);
  EXPECT_EQ(sa.soundness_calls, sb.soundness_calls);
  EXPECT_EQ(sa.feasibility_skips, sb.feasibility_skips);
  EXPECT_EQ(sa.soundness_deferred, sb.soundness_deferred);
  EXPECT_EQ(sa.deferred_processed, sb.deferred_processed);
  EXPECT_EQ(sa.sequences_checked, sb.sequences_checked);
  EXPECT_EQ(sa.completed, sb.completed);

  for (NodeId n = 0; n < num_nodes; ++n) {
    ASSERT_EQ(a.store().size(n), b.store().size(n)) << "LS_" << n << " size diverged";
    for (std::uint32_t i = 0; i < a.store().size(n); ++i)
      EXPECT_EQ(a.store().rec(n, i).hash, b.store().rec(n, i).hash);
  }

  ASSERT_EQ(a.violations().size(), b.violations().size());
  for (std::size_t v = 0; v < a.violations().size(); ++v) {
    const LocalViolation& va = a.violations()[v];
    const LocalViolation& vb = b.violations()[v];
    EXPECT_EQ(va.combo, vb.combo);
    EXPECT_EQ(va.state_hashes, vb.state_hashes);
    EXPECT_EQ(va.system_state, vb.system_state);
    EXPECT_EQ(va.confirmed, vb.confirmed);
    ASSERT_EQ(va.witness.size(), vb.witness.size()) << "witness schedules diverged";
    for (std::size_t s = 0; s < va.witness.size(); ++s) {
      EXPECT_EQ(va.witness[s].node, vb.witness[s].node);
      EXPECT_EQ(va.witness[s].is_message, vb.witness[s].is_message);
      EXPECT_EQ(va.witness[s].ev_hash, vb.witness[s].ev_hash);
    }
  }
}

// §5.5 live state: node0 proposed and learned v1; node1 accepted it; the
// other Learns were dropped (mirror of the builder in test_paxos_mc).
std::vector<Blob> build_5_5_live_state(const SystemConfig& cfg) {
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  auto fire = [&](NodeId n) {
    auto evs = internal_events_of(cfg, n, nodes[n]);
    ASSERT_FALSE(evs.empty());
    ExecResult r = exec_internal(cfg, n, nodes[n], evs[0]);
    ASSERT_FALSE(r.assert_failed);
    nodes[n] = std::move(r.state);
    for (Message& out : r.sent) flight.push_back(std::move(out));
  };
  auto deliver = [&](NodeId dst, std::uint32_t type) {
    for (std::size_t i = 0; i < flight.size(); ++i) {
      if (flight[i].dst != dst || flight[i].type != type) continue;
      Message m = flight[i];
      flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
      ExecResult r = exec_message(cfg, dst, nodes[dst], m);
      ASSERT_FALSE(r.assert_failed);
      nodes[dst] = std::move(r.state);
      for (Message& out : r.sent) flight.push_back(std::move(out));
      return;
    }
    FAIL() << "no in-flight message of type " << type << " for node " << dst;
  };
  for (NodeId n = 0; n < 3; ++n) fire(n);  // init x3
  fire(0);                                 // node0 proposes
  for (NodeId n = 0; n < 3; ++n) deliver(n, paxos::kPrepare);
  for (int i = 0; i < 3; ++i) deliver(0, paxos::kPrepareResponse);
  deliver(0, paxos::kAccept);
  deliver(1, paxos::kAccept);
  deliver(0, paxos::kLearn);
  deliver(0, paxos::kLearn);
  return nodes;
}

TEST(ParallelDeterminism, BuggyPaxosLiveStateAcrossThreadCounts) {
  // The OPT path on the workload that actually finds the WiDS bug: the
  // projection-class scan runs inline on the applier, while the feasibility
  // pre-checks, quick soundness passes and the phase-2 drain fan out over
  // the pool, yet every thread count must confirm the same violation with
  // the same witness.
  SystemConfig cfg = paxos::make_config(
      3, paxos::CoreOptions{0, /*bug=*/true}, paxos::DriverConfig{{0, 1}, 1});
  auto inv = paxos::make_agreement_invariant();

  std::vector<std::unique_ptr<LocalModelChecker>> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    std::vector<Blob> live;
    build_5_5_live_state(cfg).swap(live);
    LocalMcOptions opt;
    opt.max_total_depth = 18;
    opt.use_projection = true;
    opt.time_budget_s = 300;
    opt.num_threads = threads;
    runs.push_back(std::make_unique<LocalModelChecker>(cfg, inv.get(), opt));
    runs.back()->run(live, {});
  }
  ASSERT_GE(runs[0]->stats().confirmed_violations, 1u) << "bug must be rediscovered";
  expect_identical_runs(*runs[0], *runs[1], cfg.num_nodes);
  expect_identical_runs(*runs[0], *runs[2], cfg.num_nodes);

  // The multi-threaded witness replays through the real handlers.
  const LocalViolation* v = runs[2]->first_confirmed();
  ASSERT_NE(v, nullptr);
  ReplayResult rep = replay_schedule(cfg, runs[2]->initial_nodes(), runs[2]->initial_in_flight(),
                                     v->witness, runs[2]->events(), v->state_hashes);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ParallelDeterminism, WidsSoundnessSearchIsPinned) {
  // The joint search's order is part of its contract: it decides which
  // witness is found, where LMC-OPT's free nodes park (the confirmed
  // combination) and whether a sound combination is found within the quick
  // pass's cap, which moves soundness_calls. Every value below is the one
  // the closures' recorded out-edge order produces on the §5.5 workload
  // with chains of at most 3 events; sorting a closure's states instead
  // keeps every count but changes the witnesses.
  SystemConfig cfg = paxos::make_config(
      3, paxos::CoreOptions{0, /*bug=*/true}, paxos::DriverConfig{{0, 1}, 1});
  auto inv = paxos::make_agreement_invariant();
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::vector<Blob> live;
    build_5_5_live_state(cfg).swap(live);
    LocalMcOptions opt;
    opt.max_total_depth = 18;
    opt.max_chain_depth = 3;
    opt.use_projection = true;
    opt.stop_on_confirmed = false;
    opt.num_threads = threads;
    LocalModelChecker mc(cfg, inv.get(), opt);
    mc.run(live, {});
    const LocalMcStats& s = mc.stats();
    EXPECT_EQ(s.transitions, 1168u);
    EXPECT_EQ(s.node_states, 247u);
    EXPECT_EQ(s.system_states, 2678u);
    EXPECT_EQ(s.soundness_calls, 1068u);
    EXPECT_EQ(s.confirmed_violations, 4u);
    EXPECT_EQ(s.sequences_checked, 13979u);
    EXPECT_EQ(s.feasibility_skips, 2144u);
    EXPECT_EQ(s.soundness_deferred, 2678u);
    EXPECT_EQ(hash_blob(dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes())),
              0xf2c24bf7834e218bULL);
    Hash64 h = 0;
    for (const LocalViolation& v : mc.violations()) {
      for (std::uint32_t c : v.combo) h = hash_combine(h, c);
      for (const ScheduleStep& step : v.witness)
        h = hash_combine(hash_combine(hash_combine(h, step.node), step.is_message), step.ev_hash);
    }
    EXPECT_EQ(h, 0xd04d96013991fb4dULL);
  }
}

TEST(ParallelDeterminism, PaxosPhaseOneIsPinned) {
  // Phase-1 identity on correct Paxos: the lanes hash each result they
  // produce (sent messages and successor state) and the applier only looks
  // those hashes up, so every count and the normalized checkpoint must be
  // the same at any thread count, and equal to the values pinned here.
  // The units are lmcbench's reduced paxos-explore and paxos-online ones.
  struct Unit {
    const char* name;
    std::shared_ptr<SystemConfig> cfg;
    std::vector<Blob> nodes;
    std::vector<Message> in_flight;
    LocalMcOptions opt;
    std::uint64_t transitions, node_states, iplus, suppressed;
    Hash64 ckpt;
  };
  auto paxos_cfg = [](std::set<NodeId> proposers, std::uint32_t max_proposals, bool fresh) {
    paxos::DriverConfig d;
    d.proposers = std::move(proposers);
    d.max_proposals = max_proposals;
    d.allow_fresh_index = fresh;
    return std::make_shared<SystemConfig>(paxos::make_config(3, paxos::CoreOptions{}, d));
  };
  std::vector<Unit> units;
  {
    // paxos-1p: one proposal from the initial states, LMC-explore.
    Unit u{"paxos-1p", paxos_cfg({0}, 1, false), {}, {}, {}, 1664, 243, 21, 1123,
           0x7927d42b0445ce3bULL};
    u.nodes = initial_states(*u.cfg);
    u.opt.enable_system_states = false;
    u.opt.stop_on_confirmed = false;
    units.push_back(std::move(u));
  }
  // period-1: a live snapshot with messages in flight (3 proposers, 30%
  // drops, seed 1, taken at 30 s), LMC-OPT at depth 14 under a cap.
  const std::shared_ptr<SystemConfig> live_cfg = paxos_cfg({0, 1, 2}, 3, true);
  LiveOptions lo;
  lo.seed = 1;
  lo.transport.drop_prob = 0.3;
  lo.app_min = 0.0;
  lo.app_max = 60.0;
  LiveRunner live(*live_cfg, lo, first_enabled_driver());
  live.run_until(30.0);
  {
    Snapshot snap = live.snapshot();
    Unit u{"period-1", paxos_cfg({0, 1, 2}, 4, false), std::move(snap.nodes),
           std::move(snap.in_flight), {}, 5000, 739, 90, 3827, 0x97f483c226af0f53ULL};
    u.opt.max_total_depth = 14;
    u.opt.use_projection = true;
    u.opt.max_transitions = 5000;
    u.opt.stop_on_confirmed = false;
    units.push_back(std::move(u));
  }
  auto inv = paxos::make_agreement_invariant();
  for (const Unit& u : units) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(u.name) + " threads=" + std::to_string(threads));
      LocalMcOptions opt = u.opt;
      opt.num_threads = threads;
      LocalModelChecker mc(*u.cfg, inv.get(), opt);
      mc.run(u.nodes, u.in_flight);
      const LocalMcStats& s = mc.stats();
      EXPECT_EQ(s.transitions, u.transitions);
      EXPECT_EQ(s.node_states, u.node_states);
      EXPECT_EQ(s.messages_in_iplus, u.iplus);
      EXPECT_EQ(s.dup_msgs_suppressed, u.suppressed);
      EXPECT_EQ(s.system_states, 0u);
      EXPECT_EQ(hash_blob(dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes())), u.ckpt);
    }
  }
}

TEST(ParallelDeterminism, BuggyElectionAcrossThreadCounts) {
  SystemConfig cfg = election::make_config(3, election::Options{{0}, /*bug=*/true});
  election::SingleLeaderInvariant inv;

  std::vector<std::unique_ptr<LocalModelChecker>> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    LocalMcOptions opt;
    opt.use_projection = true;
    opt.time_budget_s = 300;
    opt.num_threads = threads;
    runs.push_back(std::make_unique<LocalModelChecker>(cfg, &inv, opt));
    runs.back()->run_from_initial();
  }
  ASSERT_GE(runs[0]->stats().confirmed_violations, 1u);
  expect_identical_runs(*runs[0], *runs[1], cfg.num_nodes);
  expect_identical_runs(*runs[0], *runs[2], cfg.num_nodes);
}

TEST(ParallelDeterminism, GenSweepAcrossThreadCounts) {
  // No projection: the mixed-radix GEN shards carry the whole sweep.
  // stop_on_confirmed=false exercises the multi-violation merge.
  SystemConfig cfg = counter_cfg(3, 2);
  PingLimitInvariant inv(3);

  std::vector<std::unique_ptr<LocalModelChecker>> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    LocalMcOptions opt;
    opt.stop_on_confirmed = false;
    opt.time_budget_s = 300;
    opt.num_threads = threads;
    runs.push_back(std::make_unique<LocalModelChecker>(cfg, &inv, opt));
    runs.back()->run_from_initial();
  }
  ASSERT_GE(runs[0]->stats().confirmed_violations, 1u);
  ASSERT_GT(runs[0]->stats().system_states, 0u);
  expect_identical_runs(*runs[0], *runs[1], cfg.num_nodes);
  expect_identical_runs(*runs[0], *runs[2], cfg.num_nodes);
}

// ---------------------------------------------------------------------------
// Resume guard: a checkpoint whose recorded elapsed time already exceeds the
// budget must resume into an immediate clean stop — no replayed round, no
// new work, pending tasks preserved for a later resume with a real budget.

TEST(ParallelResume, ResumedPastBudgetStopsCleanlyWithoutWork) {
  SystemConfig cfg = counter_cfg(3, 3);
  PingLimitInvariant inv(1000);
  LocalMcOptions opt;
  opt.max_transitions = 5;  // stop mid-round: pending tasks exist
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  ASSERT_FALSE(mc.stats().completed);

  CheckerImage img = decode_checkpoint(mc.checkpoint_bytes());
  ASSERT_FALSE(img.pending.empty());
  img.stats.elapsed_s = 9'000.0;  // pretend the interrupted run burned 2.5 h
  const std::string path = testing::TempDir() + "lmc_past_budget.ckpt";
  write_checkpoint_file(path, encode_checkpoint(img));

  LocalMcOptions ropt;
  ropt.time_budget_s = 60;  // << 9000 already consumed
  LocalModelChecker re(cfg, &inv, ropt);
  re.run_resumed(path);
  EXPECT_FALSE(re.stats().completed);
  EXPECT_EQ(re.stats().transitions, img.stats.transitions) << "no new work allowed";
  EXPECT_EQ(re.stats().node_states, img.stats.node_states);
  EXPECT_GE(re.stats().elapsed_s, 9'000.0);

  // The unapplied round survives for the next (properly budgeted) resume.
  CheckerImage again = decode_checkpoint(re.checkpoint_bytes());
  EXPECT_EQ(again.pending.size(), img.pending.size());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Auto-checkpoint failure: a write error must not kill the run or leave
// checkpoints_written counting files that do not exist.

TEST(ParallelResume, FailedAutoCheckpointIsCountedAndRunContinues) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(1000);
  LocalMcOptions opt;
  opt.checkpoint_every_s = 1e-9;  // every round
  opt.checkpoint_path = "/nonexistent-dir-for-lmc-test/ckpt.bin";
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_TRUE(mc.stats().completed) << "write failures must not abort exploration";
  EXPECT_GE(mc.stats().checkpoint_failures, 1u);
  EXPECT_EQ(mc.stats().checkpoints_written, 0u);
}

// ---------------------------------------------------------------------------
// addNextState order (Fig. 9): messages sent by a handler whose local assert
// fails are REAL network traffic — they were sent before the assert tripped
// — and must enter I+ even when the successor state is discarded.

constexpr std::uint32_t kEvFire = 1;
constexpr std::uint32_t kMsgRelay = 9;

// Node 0 fires once: sends a relay to node 1, THEN fails a local assert.
// Node 1 counts received relays.
class SendThenAssertNode final : public StateMachine {
 public:
  explicit SendThenAssertNode(NodeId self) : self_(self) {}

  void handle_message(const Message& m, Context&) override {
    if (m.type == kMsgRelay) ++got_;
  }
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (self_ == 0 && !fired_) return {InternalEvent{kEvFire, {}}};
    return {};
  }
  void handle_internal(const InternalEvent&, Context& ctx) override {
    fired_ = true;
    Writer w;
    w.u32(self_);
    ctx.send(1, kMsgRelay, std::move(w).take());
    ctx.local_assert(false, "invariant tripped after send");
  }
  void serialize(Writer& w) const override {
    w.u32(fired_ ? 1 : 0);
    w.u32(got_);
  }
  void deserialize(Reader& r) override {
    fired_ = r.u32() != 0;
    got_ = r.u32();
  }

 private:
  NodeId self_;
  bool fired_ = false;
  std::uint32_t got_ = 0;
};

SystemConfig relay_cfg() {
  SystemConfig cfg;
  cfg.num_nodes = 3;
  cfg.factory = [](NodeId self, std::uint32_t) {
    return std::make_unique<SendThenAssertNode>(self);
  };
  return cfg;
}

/// Violated as soon as node 1 received a relay.
class RelayReceivedInvariant final : public Invariant {
 public:
  std::string name() const override { return "relay.received"; }
  bool holds(const SystemConfig&, const SystemStateView& sys) const override {
    Reader r(*sys[1]);
    r.u32();  // fired
    return r.u32() == 0;
  }
};

TEST(AssertSends, DiscardStateKeepsSentMessagesInIplus) {
  SystemConfig cfg = relay_cfg();
  RelayReceivedInvariant inv;
  LocalMcOptions opt;  // default policy: DiscardState
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();

  ASSERT_GE(mc.stats().local_assert_discards, 1u) << "the assert must have fired";
  // The relay was sent before the assert: it is in I+ and node 1 executed it.
  EXPECT_GE(mc.stats().messages_in_iplus, 1u) << "sent message lost on discarded state";
  EXPECT_GT(mc.stats().transitions, 1u) << "node 1 never received the relay";
  EXPECT_GE(mc.stats().prelim_violations, 1u);
  // But the discarded sender state generates no predecessor edge, so no
  // feasible schedule delivers the relay: the violation must stay unsound.
  EXPECT_EQ(mc.stats().confirmed_violations, 0u);
  EXPECT_TRUE(mc.violations().empty());
}

// ---------------------------------------------------------------------------
// Phase-1 exception accounting: two handlers rendezvous on two pool lanes
// and then both throw. The checker rethrows the first (in publication
// order) and counts the other in worker_exceptions_dropped() instead of
// losing it.

std::atomic<int> g_throw_barrier{0};

class ThrowingPairNode final : public StateMachine {
 public:
  explicit ThrowingPairNode(NodeId self) : self_(self) {}
  void handle_message(const Message&, Context&) override {}
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (!fired_) return {InternalEvent{kEvFire, {}}};
    return {};
  }
  void handle_internal(const InternalEvent&, Context&) override {
    fired_ = true;
    g_throw_barrier.fetch_add(1);
    while (g_throw_barrier.load() < 2) std::this_thread::yield();
    throw std::runtime_error("handler exploded");
  }
  void serialize(Writer& w) const override {
    w.u32(self_);
    w.u32(fired_ ? 1 : 0);
  }
  void deserialize(Reader& r) override {
    self_ = r.u32();
    fired_ = r.u32() != 0;
  }

 private:
  NodeId self_ = 0;
  bool fired_ = false;
};

TEST(ParallelDeterminism, PipelineCountsSecondaryHandlerExceptions) {
  g_throw_barrier.store(0);
  SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.factory = [](NodeId self, std::uint32_t) {
    return std::make_unique<ThrowingPairNode>(self);
  };
  LocalMcOptions opt;
  opt.num_threads = 4;
  LocalModelChecker mc(cfg, nullptr, opt);
  EXPECT_EQ(mc.worker_exceptions_dropped(), 0u);
  EXPECT_THROW(mc.run_from_initial(), std::runtime_error);
  EXPECT_EQ(mc.worker_exceptions_dropped(), 1u)
      << "the second handler's exception must be counted, not lost";
}

// Node 0's first internal event succeeds; nodes 1 and 2 throw an error
// that names the node.
class FailAfterNodeZero final : public StateMachine {
 public:
  explicit FailAfterNodeZero(NodeId self) : self_(self) {}
  void handle_message(const Message&, Context&) override {}
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (!fired_) return {InternalEvent{kEvFire, {}}};
    return {};
  }
  void handle_internal(const InternalEvent&, Context&) override {
    if (self_ != 0) throw std::runtime_error("handler failed on node " + std::to_string(self_));
    fired_ = true;
  }
  void serialize(Writer& w) const override {
    w.u32(self_);
    w.u32(fired_ ? 1 : 0);
  }
  void deserialize(Reader& r) override {
    self_ = r.u32();
    fired_ = r.u32() != 0;
  }

 private:
  NodeId self_ = 0;
  bool fired_ = false;
};

TEST(ParallelDeterminism, HandlerErrorsSurfaceInPublicationOrder) {
  // The three first-generation tasks are published node by node. Node 0's
  // result is applied before node 1's error is rethrown, at any thread
  // count. At 4 threads node 2's handler ran in the same chunk, so its
  // error is counted instead of lost.
  SystemConfig cfg;
  cfg.num_nodes = 3;
  cfg.factory = [](NodeId self, std::uint32_t) {
    return std::make_unique<FailAfterNodeZero>(self);
  };
  for (unsigned threads : {1u, 4u}) {
    LocalMcOptions opt;
    opt.num_threads = threads;
    LocalModelChecker mc(cfg, nullptr, opt);
    try {
      mc.run_from_initial();
      ADD_FAILURE() << "the handler error must propagate at " << threads << " thread(s)";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "handler failed on node 1") << threads << " thread(s)";
    }
    EXPECT_EQ(mc.stats().transitions, 1u) << threads << " thread(s)";
    EXPECT_EQ(mc.worker_exceptions_dropped(), threads == 1 ? 0u : 1u) << threads << " thread(s)";
  }
}

TEST(AssertSends, IgnoreViolationConfirmsTheSameViolation) {
  // Control: keeping the asserting successor state makes the relay
  // generatable, and the same invariant violation becomes confirmed.
  SystemConfig cfg = relay_cfg();
  RelayReceivedInvariant inv;
  LocalMcOptions opt;
  opt.assert_policy = LocalMcOptions::AssertPolicy::IgnoreViolation;
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_GE(mc.stats().messages_in_iplus, 1u);
  EXPECT_GE(mc.stats().confirmed_violations, 1u);
}

}  // namespace
}  // namespace lmc
