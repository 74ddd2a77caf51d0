// Checkpoint/resume: container-format validation, canonical round-trips,
// and the pinned property that an interrupted run resumed from its
// checkpoint performs EXACTLY the exploration the uninterrupted run would
// have (same states, transitions, violations).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>

#include "dfuzz/oracle.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/exec_cache.hpp"
#include "protocols/paxos.hpp"
#include "runtime/hash.hpp"

namespace lmc {
namespace {

constexpr std::uint32_t kEvInc = 1;
constexpr std::uint32_t kMsgPing = 7;

// Same tiny ring-counter protocol as test_local_mc: each node may fire
// `max_inc` increments, each pinging the next node; pings are counted.
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
      r.u32();
      total += r.u32();
    }
    return total < limit_;
  }

 private:
  std::uint32_t limit_;
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Structural fingerprint of a checker: per-node state-hash sets, I+ hashes,
// the numbers the resume-equality property pins down.
struct Fingerprint {
  std::vector<std::set<Hash64>> ls;
  std::set<Hash64> iplus;
  std::uint64_t transitions = 0;
  std::uint64_t node_states = 0;
  std::uint64_t confirmed = 0;
  std::vector<std::vector<Hash64>> violation_hashes;
};

Fingerprint fingerprint(const LocalModelChecker& mc, std::uint32_t num_nodes) {
  Fingerprint f;
  f.ls.resize(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n)
    for (std::uint32_t i = 0; i < mc.store().size(n); ++i)
      f.ls[n].insert(mc.store().rec(n, i).hash);
  for (Hash64 h : mc.iplus().all_hashes()) f.iplus.insert(h);
  f.transitions = mc.stats().transitions;
  f.node_states = mc.stats().node_states;
  f.confirmed = mc.stats().confirmed_violations;
  for (const LocalViolation& v : mc.violations())
    if (v.confirmed) f.violation_hashes.push_back(v.state_hashes);
  return f;
}

void expect_equal(const Fingerprint& a, const Fingerprint& b) {
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.node_states, b.node_states);
  EXPECT_EQ(a.confirmed, b.confirmed);
  ASSERT_EQ(a.ls.size(), b.ls.size());
  for (std::size_t n = 0; n < a.ls.size(); ++n)
    EXPECT_EQ(a.ls[n], b.ls[n]) << "LS_" << n << " diverged";
  EXPECT_EQ(a.iplus, b.iplus) << "I+ diverged";
  EXPECT_EQ(a.violation_hashes, b.violation_hashes);
}

TEST(Persist, RoundTripIsByteIdentical) {
  SystemConfig cfg = counter_cfg(3, 2);
  PingLimitInvariant inv(4);
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();

  const Blob b = mc.checkpoint_bytes();
  // decode -> encode reproduces the bytes (canonical form).
  CheckerImage img = decode_checkpoint(b);
  EXPECT_EQ(encode_checkpoint(img), b);

  // load into a fresh checker -> re-save reproduces the bytes too.
  LocalModelChecker mc2(cfg, &inv, opt);
  mc2.load_checkpoint_bytes(b);
  EXPECT_EQ(mc2.checkpoint_bytes(), b);

  // And the loaded checker exposes identical state.
  expect_equal(fingerprint(mc, cfg.num_nodes), fingerprint(mc2, cfg.num_nodes));
}

TEST(Persist, MidRunCheckpointCarriesPendingTasks) {
  SystemConfig cfg = counter_cfg(3, 3);
  PingLimitInvariant inv(1000);
  LocalMcOptions opt;
  opt.max_transitions = 5;  // stop mid-round: cursors passed uncollected tasks
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  ASSERT_FALSE(mc.stats().completed);

  const Blob b = mc.checkpoint_bytes();
  const CheckpointInfo info = inspect_checkpoint(b);
  EXPECT_GT(info.pending_tasks, 0u) << "a mid-round stop must persist the round's tail";
  // Round-trip still byte-identical with a pending section.
  EXPECT_EQ(encode_checkpoint(decode_checkpoint(b)), b);
}

TEST(Persist, InspectReportsCounters) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();

  const Blob b = mc.checkpoint_bytes();
  const CheckpointInfo info = inspect_checkpoint(b);
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.num_nodes, 2u);
  EXPECT_EQ(info.total_states, mc.store().total_states());
  EXPECT_EQ(info.net_size, mc.iplus().size());
  EXPECT_EQ(info.event_count, mc.events().size());
  EXPECT_EQ(info.stats.transitions, mc.stats().transitions);
  EXPECT_EQ(info.sections.size(), 12u);
}

TEST(Persist, RejectsCorruptedInput) {
  SystemConfig cfg = counter_cfg(2, 1);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();
  const Blob good = mc.checkpoint_bytes();

  // Too short / empty.
  EXPECT_THROW(decode_checkpoint(Blob{}), CheckpointError);
  EXPECT_THROW(decode_checkpoint(Blob(4, 0x42)), CheckpointError);

  // Bad magic.
  Blob bad = good;
  bad[0] ^= 0xff;
  EXPECT_THROW(decode_checkpoint(bad), CheckpointError);

  // Truncation anywhere is caught by the trailing checksum.
  Blob trunc(good.begin(), good.end() - 9);
  EXPECT_THROW(decode_checkpoint(trunc), CheckpointError);

  // A single flipped bit in the middle is caught by the checksum.
  Blob flipped = good;
  flipped[good.size() / 2] ^= 0x01;
  EXPECT_THROW(decode_checkpoint(flipped), CheckpointError);
}

TEST(Persist, RejectsWrongVersionWithClearError) {
  SystemConfig cfg = counter_cfg(2, 1);
  LocalModelChecker mc(cfg, nullptr, {});
  mc.run_from_initial();
  Blob b = mc.checkpoint_bytes();

  // Patch the version field (offset 8, after the 8-byte magic) and redo the
  // trailing checksum so only the version check can reject it.
  b[8] = 0x77;
  const std::size_t body = b.size() - 8;
  const Hash64 sum = hash_bytes(b.data(), body);
  for (std::size_t i = 0; i < 8; ++i) b[body + i] = static_cast<std::uint8_t>(sum >> (8 * i));

  try {
    decode_checkpoint(b);
    FAIL() << "wrong version must be rejected";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(Persist, RejectsNodeCountMismatch) {
  SystemConfig cfg2 = counter_cfg(2, 1);
  LocalModelChecker mc(cfg2, nullptr, {});
  mc.run_from_initial();
  const Blob b = mc.checkpoint_bytes();

  SystemConfig cfg3 = counter_cfg(3, 1);
  LocalModelChecker other(cfg3, nullptr, {});
  EXPECT_THROW(other.load_checkpoint_bytes(b), CheckpointError);
}

TEST(Persist, FileRoundTripAndMissingFile) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();

  const std::string path = temp_path("ckpt_file_roundtrip.lmcckpt");
  mc.save_checkpoint(path);
  EXPECT_EQ(read_checkpoint_file(path), mc.checkpoint_bytes());

  LocalModelChecker mc2(cfg, &inv, {});
  mc2.load_checkpoint(path);
  expect_equal(fingerprint(mc, cfg.num_nodes), fingerprint(mc2, cfg.num_nodes));

  EXPECT_THROW(read_checkpoint_file(path + ".does-not-exist"), CheckpointError);
}

TEST(Persist, AutoCheckpointWritesDuringRun) {
  SystemConfig cfg = counter_cfg(4, 5);  // enough work for several rounds
  PingLimitInvariant inv(1u << 30);
  LocalMcOptions opt;
  opt.checkpoint_every_s = 1e-9;  // every round boundary
  opt.checkpoint_path = temp_path("ckpt_auto.lmcckpt");
  opt.max_transitions = 2000;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  ASSERT_GT(mc.stats().checkpoints_written, 0u);
  // The file on disk is a valid checkpoint of this system.
  const CheckerImage img = decode_checkpoint(read_checkpoint_file(opt.checkpoint_path));
  EXPECT_EQ(img.num_nodes, cfg.num_nodes);
  EXPECT_GT(img.stats.checkpoints_written, 0u);
}

// The core property: interrupt at roughly half the transition budget,
// checkpoint, resume in a FRESH checker — the final exploration must be
// exactly the uninterrupted one. The interrupted half runs at 1 and at 4
// threads: at 4 the pool has already executed part of the stopped
// generation's tail, which must still become `pending`, in order, so both
// runs write the same normalized checkpoint.
TEST(Persist, InterruptedResumeEqualsUninterruptedCounter) {
  SystemConfig cfg = counter_cfg(3, 3);
  PingLimitInvariant inv(6);
  LocalMcOptions full;
  full.stop_on_confirmed = false;
  LocalModelChecker a(cfg, &inv, full);
  a.run_from_initial();
  ASSERT_TRUE(a.stats().completed);
  ASSERT_GT(a.stats().transitions, 4u);

  std::vector<Blob> normalized;
  for (unsigned threads : {1u, 4u}) {
    LocalMcOptions half = full;
    half.max_transitions = a.stats().transitions / 2;
    half.num_threads = threads;
    LocalModelChecker b(cfg, &inv, half);
    b.run_from_initial();
    ASSERT_FALSE(b.stats().completed);
    ASSERT_LT(b.stats().transitions, a.stats().transitions);
    normalized.push_back(dfuzz::normalized_checkpoint_bytes(b.checkpoint_bytes()));
    ASSERT_FALSE(decode_checkpoint(normalized.back()).pending.empty())
        << "the stop must leave an unapplied tail";

    const std::string path =
        temp_path("ckpt_resume_counter_t" + std::to_string(threads) + ".lmcckpt");
    b.save_checkpoint(path);

    LocalModelChecker c(cfg, &inv, full);
    c.run_resumed(path);
    EXPECT_TRUE(c.stats().completed);
    expect_equal(fingerprint(a, cfg.num_nodes), fingerprint(c, cfg.num_nodes));
    // Witnesses survive the round trip: still replayable from the snapshot.
    ASSERT_FALSE(c.violations().empty());
    const LocalViolation* v = c.first_confirmed();
    ASSERT_NE(v, nullptr);
    ReplayResult rep = replay_schedule(cfg, c.initial_nodes(), c.initial_in_flight(),
                                       v->witness, c.events(), v->state_hashes);
    EXPECT_TRUE(rep.ok) << rep.error;
  }
  EXPECT_EQ(normalized[0], normalized[1]) << "the pending tail depends on the thread count";
}

// Same property on the paper's §5.5 workload: the buggy-Paxos WiDS hunt,
// interrupted at half budget, must converge to the identical violation.
TEST(Persist, InterruptedResumeFindsSameWidsViolation) {
  SystemConfig cfg =
      paxos::make_config(3, paxos::CoreOptions{0, true}, paxos::DriverConfig{{0, 1}, 1});
  auto inv = paxos::make_agreement_invariant();

  // Build the §5.5 live state: node0's proposal chosen at node0 only.
  std::vector<Blob> nodes = initial_states(cfg);
  std::vector<Message> flight;
  auto fire = [&](NodeId n) {
    auto evs = internal_events_of(cfg, n, nodes[n]);
    ASSERT_FALSE(evs.empty());
    ExecResult r = exec_internal(cfg, n, nodes[n], evs[0]);
    ASSERT_FALSE(r.assert_failed);
    nodes[n] = std::move(r.state);
    for (Message& m : r.sent) flight.push_back(std::move(m));
  };
  auto deliver = [&](NodeId dst, std::uint32_t type) {
    for (std::size_t i = 0; i < flight.size(); ++i)
      if (flight[i].dst == dst && flight[i].type == type) {
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
  for (NodeId n = 0; n < 3; ++n) fire(n);
  fire(0);
  for (NodeId n = 0; n < 3; ++n) deliver(n, paxos::kPrepare);
  for (int i = 0; i < 3; ++i) deliver(0, paxos::kPrepareResponse);
  deliver(0, paxos::kAccept);
  deliver(1, paxos::kAccept);
  deliver(0, paxos::kLearn);
  deliver(0, paxos::kLearn);

  LocalMcOptions full;
  full.max_total_depth = 18;
  full.use_projection = true;
  full.time_budget_s = 120;
  LocalModelChecker a(cfg, inv.get(), full);
  a.run(nodes, {});
  ASSERT_GE(a.stats().confirmed_violations, 1u);

  LocalMcOptions half = full;
  half.max_transitions = a.stats().transitions / 2;
  LocalModelChecker b(cfg, inv.get(), half);
  b.run(nodes, {});
  ASSERT_FALSE(b.stats().completed);
  ASSERT_EQ(b.stats().confirmed_violations, 0u) << "half budget must interrupt before the bug";

  const std::string path = temp_path("ckpt_resume_wids.lmcckpt");
  b.save_checkpoint(path);

  LocalModelChecker c(cfg, inv.get(), full);
  c.run_resumed(path);
  expect_equal(fingerprint(a, cfg.num_nodes), fingerprint(c, cfg.num_nodes));

  const LocalViolation* v = c.first_confirmed();
  ASSERT_NE(v, nullptr);
  ReplayResult rep = replay_schedule(cfg, c.initial_nodes(), c.initial_in_flight(), v->witness,
                                     c.events(), v->state_hashes);
  EXPECT_TRUE(rep.ok) << rep.error;
}

// A node that only absorbs kMsgWork messages, slowly: drives the
// inside-a-round checkpoint-interval regression test below.
constexpr std::uint32_t kMsgWork = 9;

class SlowSinkNode final : public StateMachine {
 public:
  void handle_message(const Message& m, Context& ctx) override {
    ctx.local_assert(m.type == kMsgWork, "slow: unknown message");
    std::this_thread::sleep_for(std::chrono::microseconds(1500));
    Reader r(m.payload);
    sum_ += r.u32();
    ++seen_;
  }
  std::vector<InternalEvent> enabled_internal_events() const override { return {}; }
  void handle_internal(const InternalEvent&, Context& ctx) override {
    ctx.local_assert(false, "slow: no internal events");
  }
  void serialize(Writer& w) const override {
    w.u32(seen_);
    w.u32(sum_);
  }
  void deserialize(Reader& r) override {
    seen_ = r.u32();
    sum_ = r.u32();
  }

 private:
  std::uint32_t seen_ = 0;
  std::uint32_t sum_ = 0;
};

TEST(Persist, SlowGenerationHonorsCheckpointInterval) {
  // checkpoint_every_s must be honored INSIDE a long generation of slow
  // handlers, not only at round boundaries: 40 ~1.5ms handlers land in one
  // round, so with a 5ms interval several checkpoints must be written at
  // the cooperative safepoints between task groups (the old round-barrier
  // loop wrote exactly one, after the round finished).
  SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.factory = [](NodeId, std::uint32_t) { return std::make_unique<SlowSinkNode>(); };
  LocalMcOptions opt;
  opt.max_chain_depth = 1;  // each message is delivered to the root state only
  opt.checkpoint_every_s = 0.005;
  opt.checkpoint_path = temp_path("ckpt_slow_gen.lmcckpt");
  LocalModelChecker mc(cfg, nullptr, opt);

  std::vector<Message> flight;
  for (std::uint32_t i = 0; i < 40; ++i) {
    Writer w;
    w.u32(i);
    flight.push_back(Message{1, 0, kMsgWork, std::move(w).take()});
  }
  mc.run(initial_states(cfg), flight);
  EXPECT_TRUE(mc.stats().completed);
  EXPECT_EQ(mc.stats().transitions, 40u);
  EXPECT_GE(mc.stats().checkpoints_written, 3u)
      << "the interval must fire at safepoints inside the round";
  // The file on disk is a valid checkpoint of this system.
  const CheckerImage img = decode_checkpoint(read_checkpoint_file(opt.checkpoint_path));
  EXPECT_EQ(img.num_nodes, cfg.num_nodes);
}

TEST(Persist, ResumedTraceContinuesSegmentAndRounds) {
  // Satellite of the segment section (FORMAT.md id 12): a resumed run's
  // trace must be stitchable to the original's — kRunBegin carries the
  // bumped segment id, and round numbering continues from the checkpoint's
  // round instead of restarting at 0.
  SystemConfig cfg = counter_cfg(3, 3);
  PingLimitInvariant inv(1000);
  LocalMcOptions full;
  full.stop_on_confirmed = false;

  LocalModelChecker a(cfg, &inv, full);
  a.run_from_initial();
  ASSERT_TRUE(a.stats().completed);
  ASSERT_GT(a.stats().transitions, 4u);

  obs::TraceSink first_seg;
  LocalMcOptions half = full;
  half.max_transitions = a.stats().transitions / 2;
  half.trace = &first_seg;
  LocalModelChecker b(cfg, &inv, half);
  b.run_from_initial();
  ASSERT_FALSE(b.stats().completed);

  const CheckerImage img = decode_checkpoint(b.checkpoint_bytes());
  EXPECT_EQ(img.segment_id, 0u) << "a straight run is segment 0";
  ASSERT_GT(img.base_round, 0u);

  const std::string path = temp_path("ckpt_trace_seg.lmcckpt");
  b.save_checkpoint(path);

  obs::TraceSink second_seg;
  LocalMcOptions resume = full;
  resume.trace = &second_seg;
  LocalModelChecker c(cfg, &inv, resume);
  c.run_resumed(path);
  EXPECT_TRUE(c.stats().completed);

  auto run_begin = [](const obs::TraceSink& s) {
    for (const obs::TraceEvent& ev : s.events())
      if (ev.type == obs::EventType::kRunBegin) return ev;
    ADD_FAILURE() << "no kRunBegin in trace";
    return obs::TraceEvent{};
  };
  const obs::TraceEvent b0 = run_begin(first_seg);
  EXPECT_EQ(b0.a, 0u) << "mode: fresh";
  EXPECT_EQ(b0.seq, 0u) << "fresh run is segment 0";
  EXPECT_EQ(b0.round, 0u);
  const obs::TraceEvent b1 = run_begin(second_seg);
  EXPECT_EQ(b1.a, 2u) << "mode: resume";
  EXPECT_EQ(b1.seq, 1u) << "resume bumps the segment id";
  EXPECT_EQ(b1.round, img.base_round);

  // The resumed segment's first round is base_round + 1 (the replayed
  // pending tail of the interrupted round), never 0.
  std::uint32_t first_round = 0;
  for (const obs::TraceEvent& ev : second_seg.events())
    if (ev.type == obs::EventType::kRoundBegin) {
      first_round = ev.round;
      break;
    }
  EXPECT_EQ(first_round, img.base_round + 1);

  // Re-saving the resumed checker stamps the bumped segment id, and the
  // exploration is exactly the uninterrupted one.
  EXPECT_EQ(decode_checkpoint(c.checkpoint_bytes()).segment_id, 1u);
  expect_equal(fingerprint(a, cfg.num_nodes), fingerprint(c, cfg.num_nodes));

  // One stream holding both segments reports the whole run: the resumed
  // segment's cumulative totals count only beyond the segment it continues.
  std::vector<obs::TraceEvent> both = first_seg.events();
  both.insert(both.end(), second_seg.events().begin(), second_seg.events().end());
  const obs::ReportSummary sum = obs::summarize(both);
  EXPECT_EQ(sum.run_begins, 2u);
  EXPECT_DOUBLE_EQ(sum.elapsed_s, c.stats().elapsed_s);
  EXPECT_EQ(sum.final_transitions, c.stats().transitions);
  EXPECT_EQ(sum.transitions, c.stats().transitions);
  EXPECT_EQ(sum.confirmed, c.stats().confirmed_violations);
}

TEST(Persist, ExecCacheReplaysIdenticalExploration) {
  // A second run of the SAME search with a shared cache must perform ZERO
  // handler executions — every one replays from the cache — and still build
  // the identical exploration (stores, I+, violations).
  SystemConfig cfg = counter_cfg(3, 3);
  PingLimitInvariant inv(6);
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;

  ExecCache cache;
  opt.exec_cache = &cache;
  LocalModelChecker first(cfg, &inv, opt);
  first.run_from_initial();
  ASSERT_GT(first.stats().transitions, 0u);
  EXPECT_EQ(first.stats().warm_pairs_skipped, 0u) << "first run: nothing to replay";
  EXPECT_EQ(cache.size(), first.stats().transitions);

  LocalModelChecker second(cfg, &inv, opt);
  second.run_from_initial();
  EXPECT_EQ(second.stats().transitions, 0u) << "every handler execution must be a cache hit";
  EXPECT_EQ(second.stats().warm_pairs_skipped, first.stats().transitions);

  Fingerprint fa = fingerprint(first, cfg.num_nodes);
  Fingerprint fb = fingerprint(second, cfg.num_nodes);
  fb.transitions = fa.transitions;  // by design: replays are not executions
  expect_equal(fa, fb);

  // Cached and uncached exploration build the identical search (only the
  // wall-clock stats fields can differ between separate runs).
  LocalMcOptions plain = opt;
  plain.exec_cache = nullptr;
  LocalModelChecker bare(cfg, &inv, plain);
  bare.run_from_initial();
  expect_equal(fa, fingerprint(bare, cfg.num_nodes));
}

TEST(Persist, ExecCacheRotationIsThreadCountInvariant) {
  // A cache half the size of the search, pre-warmed by the smaller
  // max_inc = 2 search, whose pairs are scattered through the max_inc = 3
  // one. The second run replays the pairs the cache kept, executes the
  // rest, and inserts and rotates as it goes. At 4 threads the workers
  // peek() while the applier inserts and rotates, so some peek hits are
  // evicted before their consume and re-executed by the applier. None of
  // that may change the run: executions, replays and the exploration equal
  // the 1-thread run's.
  SystemConfig cfg = counter_cfg(3, 3);
  SystemConfig smaller = counter_cfg(3, 2);
  PingLimitInvariant inv(6);
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;

  LocalModelChecker cold(cfg, &inv, opt);
  cold.run_from_initial();
  const std::uint64_t pairs = cold.stats().transitions;
  ASSERT_GT(pairs, 16u);

  struct WarmRun {
    std::uint64_t transitions = 0;
    std::uint64_t replays = 0;
    Fingerprint fp;
  };
  auto warm_run = [&](std::uint32_t threads) {
    ExecCache cache(pairs / 2);
    LocalMcOptions o = opt;
    o.exec_cache = &cache;
    LocalModelChecker prewarm(smaller, &inv, o);
    prewarm.run_from_initial();
    o.num_threads = threads;
    LocalModelChecker mc(cfg, &inv, o);
    mc.run_from_initial();
    return WarmRun{mc.stats().transitions, mc.stats().warm_pairs_skipped,
                   fingerprint(mc, cfg.num_nodes)};
  };
  const WarmRun one = warm_run(1);
  EXPECT_GT(one.replays, 0u) << "the pre-warmed cache must serve some pairs";
  EXPECT_GT(one.transitions, pairs / 4) << "and miss enough of them to rotate";
  EXPECT_EQ(one.transitions + one.replays, pairs) << "every pair runs once: executed or replayed";

  const WarmRun four = warm_run(4);
  EXPECT_EQ(four.transitions, one.transitions);
  EXPECT_EQ(four.replays, one.replays);
  expect_equal(one.fp, four.fp);
}

TEST(Persist, ExecCacheFileRoundTripAndRejectsCorruption) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(100);
  LocalMcOptions opt;
  ExecCache cache;
  opt.exec_cache = &cache;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  ASSERT_GT(cache.size(), 0u);

  const Blob b = cache.encode();
  ExecCache loaded;
  loaded.decode(b);
  EXPECT_EQ(loaded.size(), cache.size());
  EXPECT_EQ(loaded.encode(), b) << "canonical form: decode -> encode is identity";

  // A warm run against the loaded cache replays everything.
  LocalMcOptions opt2;
  opt2.exec_cache = &loaded;
  LocalModelChecker mc2(cfg, &inv, opt2);
  mc2.run_from_initial();
  EXPECT_EQ(mc2.stats().transitions, 0u);

  const std::string path = temp_path("warm.lmcexec");
  cache.save(path);
  ExecCache from_file;
  from_file.load(path);
  EXPECT_EQ(from_file.encode(), b);

  EXPECT_THROW(ExecCache().decode(Blob{}), CheckpointError);
  Blob bad_magic = b;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(ExecCache().decode(bad_magic), CheckpointError);
  Blob truncated(b.begin(), b.end() - 5);
  EXPECT_THROW(ExecCache().decode(truncated), CheckpointError);
  Blob flipped = b;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_THROW(ExecCache().decode(flipped), CheckpointError);
}

TEST(Persist, ExecCacheEvictsOldestGenerationFirst) {
  // Bounded memoization must favor RECENT entries: a budget-truncated period
  // inserts far more pairs than the cap, and the next period's reuse comes
  // from the newest ones. The cache rotates generations of half the cap —
  // the newest half-cap of inserts always survives; lookups never evict.
  auto res_tagged = [](std::uint8_t tag) {
    ExecResult r;
    r.state = Blob{tag};
    return r;
  };
  auto has = [](const ExecCache& c, std::uint64_t i) {
    ExecResult out;
    return c.lookup(i, 100 + i, out);
  };

  ExecCache cache(8);  // generation size: 4
  for (std::uint64_t i = 1; i <= 8; ++i) cache.insert(i, 100 + i, res_tagged(std::uint8_t(i)));
  EXPECT_EQ(cache.size(), 8u);
  for (std::uint64_t i = 1; i <= 8; ++i) EXPECT_TRUE(has(cache, i)) << "key " << i;
  for (std::uint64_t i = 1; i <= 8; ++i) EXPECT_TRUE(has(cache, i)) << "key " << i << " again";

  // Ninth insert rotates: the oldest generation {1..4} is dropped, however
  // recently its entries were hit.
  cache.insert(9, 109, res_tagged(9));
  for (std::uint64_t i = 1; i <= 4; ++i) EXPECT_FALSE(has(cache, i)) << "key " << i;
  for (std::uint64_t i = 5; i <= 9; ++i) EXPECT_TRUE(has(cache, i)) << "key " << i;
  ExecResult out;
  ASSERT_TRUE(cache.lookup(5, 105, out));
  EXPECT_EQ(out.state, Blob{5});

  // {5..8} live in the old generation now; they survive until young fills
  // again, then age out together.
  for (std::uint64_t i = 10; i <= 12; ++i) cache.insert(i, 100 + i, res_tagged(std::uint8_t(i)));
  EXPECT_TRUE(has(cache, 5));
  cache.insert(13, 113, res_tagged(13));  // rotation: {5..8} dropped
  EXPECT_FALSE(has(cache, 5));
  for (std::uint64_t i = 9; i <= 13; ++i) EXPECT_TRUE(has(cache, i)) << "key " << i;

  // Re-inserting a key that is still present (in either generation) is a
  // no-op — no duplicates across generations.
  const std::size_t before = cache.size();
  cache.insert(9, 109, res_tagged(99));
  EXPECT_EQ(cache.size(), before);
  ASSERT_TRUE(cache.lookup(9, 109, out));
  EXPECT_EQ(out.state, Blob{9}) << "first insert wins";
}

}  // namespace
}  // namespace lmc
