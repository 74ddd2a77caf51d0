// Local model checker mechanics, exercised through a purpose-built tiny
// protocol so every knob (Fig. 13 variants, budgets, histories, caps) can be
// controlled precisely.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "mc/dot_export.hpp"
#include "mc/local_mc.hpp"
#include "mc/replay.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

constexpr std::uint32_t kEvInc = 1;
constexpr std::uint32_t kMsgPing = 7;

// Each node may fire `max_inc` internal increments, each of which pings the
// next node in the ring; receiving a ping bumps `pings`.
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
      w.u32(incs_);  // distinct arg per step: each inc is a distinct event
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

std::pair<std::uint32_t, std::uint32_t> decode_counter(const Blob& b) {
  Reader r(b);
  std::uint32_t incs = r.u32();
  std::uint32_t pings = r.u32();
  return {incs, pings};
}

/// Violated when total pings across nodes reach `limit`. No projection:
/// exercises the holds()-per-combination GEN path.
class PingLimitInvariant final : public Invariant {
 public:
  explicit PingLimitInvariant(std::uint32_t limit) : limit_(limit) {}
  std::string name() const override { return "counter.ping_limit"; }
  bool holds(const SystemConfig&, const SystemStateView& sys) const override {
    std::uint32_t total = 0;
    for (const Blob* b : sys) total += decode_counter(*b).second;
    return total < limit_;
  }

 private:
  std::uint32_t limit_;
};

TEST(LocalMc, ExploreOnlyModeCreatesNoSystemStates) {
  SystemConfig cfg = counter_cfg(2, 1);
  PingLimitInvariant inv(1);
  LocalMcOptions opt;
  opt.enable_system_states = false;  // Fig. 13 "LMC-explore"
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_TRUE(mc.stats().completed);
  EXPECT_EQ(mc.stats().system_states, 0u);
  EXPECT_EQ(mc.stats().prelim_violations, 0u);
  EXPECT_GT(mc.stats().node_states, 2u);
}

TEST(LocalMc, SoundnessDisabledCountsButNeverReports) {
  SystemConfig cfg = counter_cfg(2, 1);
  PingLimitInvariant inv(1);  // any ping violates
  LocalMcOptions opt;
  opt.enable_soundness = false;  // Fig. 13 "LMC-*-system-state"
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_GT(mc.stats().prelim_violations, 0u);
  EXPECT_EQ(mc.stats().confirmed_violations, 0u);
  EXPECT_EQ(mc.stats().soundness_calls, 0u);
  EXPECT_TRUE(mc.violations().empty());
}

TEST(LocalMc, ConfirmedViolationCarriesReplayableWitness) {
  SystemConfig cfg = counter_cfg(2, 1);
  PingLimitInvariant inv(2);  // two pings somewhere violate
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();
  ASSERT_GE(mc.stats().confirmed_violations, 1u);
  const LocalViolation* v = mc.first_confirmed();
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->witness.empty());
  ReplayResult rep = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(),
                                     v->witness, mc.events(), v->state_hashes);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(LocalMc, ViolationInLiveStateConfirmedImmediately) {
  SystemConfig cfg = counter_cfg(2, 1);
  PingLimitInvariant inv(1);
  // Hand-build a live state that already violates: node 0 has one ping.
  Writer w;
  w.u32(0);
  w.u32(1);
  std::vector<Blob> live{std::move(w).take(), machine_to_blob(*cfg.make(1))};

  LocalModelChecker mc(cfg, &inv, {});
  mc.run(live, {});
  ASSERT_GE(mc.stats().confirmed_violations, 1u);
  const LocalViolation* v = mc.first_confirmed();
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->witness.empty()) << "the live state itself violates: empty schedule";
}

TEST(LocalMc, TransitionBudgetStopsSearch) {
  SystemConfig cfg = counter_cfg(3, 3);
  PingLimitInvariant inv(1000);
  LocalMcOptions opt;
  opt.max_transitions = 5;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_FALSE(mc.stats().completed);
  EXPECT_LE(mc.stats().transitions, 64u);  // round-granular overshoot allowed
}

TEST(LocalMc, StopOnConfirmedFalseCollectsMultiple) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(1);
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_GT(mc.stats().confirmed_violations, 1u);
  EXPECT_EQ(mc.violations().size(), mc.stats().confirmed_violations);
}

TEST(LocalMc, SystemStateCapTruncates) {
  SystemConfig cfg = counter_cfg(3, 2);
  PingLimitInvariant inv(1000);
  LocalMcOptions opt;
  opt.max_system_states_per_step = 2;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_GT(mc.stats().combo_truncated, 0u);
}

TEST(LocalMc, DupMessagesSuppressed) {
  // Two different chains of node 0 send the identical ping message: the
  // second append to I+ must be suppressed.
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();
  EXPECT_TRUE(mc.stats().completed);
  EXPECT_GT(mc.stats().dup_msgs_suppressed, 0u);
}

TEST(LocalMc, HistoryPreventsRedelivery) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();
  EXPECT_GT(mc.stats().history_skips, 0u)
      << "descendants of a delivery must not re-execute the same message";
}

TEST(LocalMc, EventsTableCoversWitnesses) {
  SystemConfig cfg = counter_cfg(2, 2);
  PingLimitInvariant inv(2);
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  for (const LocalViolation& v : mc.violations())
    for (const ScheduleStep& s : v.witness)
      EXPECT_TRUE(mc.events().count(s.ev_hash)) << "witness event missing from table";
}

TEST(LocalMc, NoInvariantMeansPureExploration) {
  SystemConfig cfg = counter_cfg(2, 1);
  LocalModelChecker mc(cfg, nullptr, {});
  mc.run_from_initial();
  EXPECT_TRUE(mc.stats().completed);
  EXPECT_EQ(mc.stats().system_states, 0u);
  EXPECT_GT(mc.stats().node_states, 2u);
}

TEST(LocalMc, InitialInFlightMessagesAreExplored) {
  SystemConfig cfg = counter_cfg(2, 0);  // no internal events at all
  PingLimitInvariant inv(1);
  Message ping;
  ping.dst = 1;
  ping.src = 0;
  ping.type = kMsgPing;
  {
    Writer w;
    w.u32(0);
    w.u32(1);
    ping.payload = std::move(w).take();
  }
  LocalModelChecker mc(cfg, &inv, {});
  mc.run(initial_states(cfg), {ping});
  // The snapshot's in-flight ping is deliverable and its delivery violates;
  // the witness is the single delivery, valid thanks to the snapshot seed.
  ASSERT_GE(mc.stats().confirmed_violations, 1u);
  const LocalViolation* v = mc.first_confirmed();
  ASSERT_EQ(v->witness.size(), 1u);
  EXPECT_TRUE(v->witness[0].is_message);
  ReplayResult rep = replay_schedule(cfg, mc.initial_nodes(), mc.initial_in_flight(),
                                     v->witness, mc.events(), v->state_hashes);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(LocalMc, DotExportContainsAllStates) {
  SystemConfig cfg = counter_cfg(2, 1);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();
  std::string dot = to_dot(mc.store(), mc.iplus());
  EXPECT_NE(dot.find("digraph lmc"), std::string::npos);
  for (NodeId n = 0; n < 2; ++n)
    for (std::uint32_t i = 0; i < mc.store().size(n); ++i) {
      std::string id = "s" + std::to_string(n) + "_" + std::to_string(i);
      EXPECT_NE(dot.find(id), std::string::npos) << id;
    }
}

TEST(LocalMc, MemoryAccountingIsPopulated) {
  SystemConfig cfg = counter_cfg(3, 2);
  PingLimitInvariant inv(1000);
  LocalModelChecker mc(cfg, &inv, {});
  mc.run_from_initial();
  EXPECT_GT(mc.stats().stored_bytes, 0u);
  EXPECT_GT(mc.stats().messages_in_iplus, 0u);
  // The running footprint equals a walk of what the run stored.
  EXPECT_EQ(mc.stats().stored_bytes, mc.store().bytes() + mc.iplus().bytes());
}

// ---------------------------------------------------------------------------
// LMC-OPT emission order when several projection classes of one node hit.
// Node 0 ticks up to kMaxTicks times and tells node 1 each new tick count;
// its projection alternates with the tick parity. Node 1 waits kWaits
// internal steps and keeps the highest tick it heard; once it has waited it
// is mapped, with a projection that conflicts with both of node 0's. A pair
// (node 0 at tick j, node 1 having heard h) is jointly reachable iff j >= h,
// so node 1's sweeps hit interleaved members of both node-0 classes, and
// some of the hits confirm while others are deferred.

constexpr std::uint32_t kEvTick = 2;
constexpr std::uint32_t kMsgTick = 8;
constexpr std::uint32_t kMaxTicks = 6;
constexpr std::uint32_t kWaits = 3;

class TickNode final : public StateMachine {
 public:
  explicit TickNode(NodeId self) : self_(self) {}

  void handle_message(const Message& m, Context& ctx) override {
    ctx.local_assert(m.type == kMsgTick, "tick: unknown message");
    Reader r(m.payload);
    heard_ = std::max(heard_, r.u32());
  }
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (ticks_ >= (self_ == 0 ? kMaxTicks : kWaits)) return {};
    Writer w;
    w.u32(ticks_);
    return {InternalEvent{kEvTick, std::move(w).take()}};
  }
  void handle_internal(const InternalEvent& ev, Context& ctx) override {
    ctx.local_assert(ev.kind == kEvTick, "tick: unknown event");
    ++ticks_;
    if (self_ != 0) return;
    Writer w;
    w.u32(ticks_);
    ctx.send(1, kMsgTick, std::move(w).take());
  }
  void serialize(Writer& w) const override {
    w.u32(ticks_);
    w.u32(heard_);
  }
  void deserialize(Reader& r) override {
    ticks_ = r.u32();
    heard_ = r.u32();
  }

 private:
  NodeId self_;
  std::uint32_t ticks_ = 0;
  std::uint32_t heard_ = 0;
};

class TickParityInvariant final : public Invariant {
 public:
  std::string name() const override { return "tick.parity"; }
  bool holds(const SystemConfig&, const SystemStateView& sys) const override {
    return decode_counter(*sys[1]).first < kWaits;
  }
  bool has_projection() const override { return true; }
  Projection project(const SystemConfig&, NodeId n, const Blob& state) const override {
    const std::uint32_t ticks = decode_counter(state).first;
    if (n == 0) return {{0, ticks % 2}};
    if (ticks >= kWaits) return {{0, 2}};
    return {};
  }
};

TEST(LocalMc, OptMultiClassHitsKeepScanOrder) {
  SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.factory = [](NodeId self, std::uint32_t) { return std::make_unique<TickNode>(self); };
  TickParityInvariant inv;
  LocalMcOptions opt;
  opt.use_projection = true;
  opt.stop_on_confirmed = false;
  opt.num_threads = 1;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  ASSERT_TRUE(mc.stats().completed);

  // Node 1's state 9 (waited, heard nothing) is mapped while node 0 holds
  // ticks 0..3 in two parity classes: its hits come out in state order
  // 0, 1, 2, 3, not class by class (0, 2, 1, 3).
  const std::vector<std::vector<std::uint32_t>> expected{
      {0, 9},  {1, 9},  {2, 9},  {3, 9},  {1, 10}, {2, 10}, {3, 10}, {2, 11}, {3, 11}, {3, 15},
      {4, 9},  {4, 10}, {4, 11}, {4, 15}, {4, 19}, {5, 9},  {5, 10}, {5, 11}, {5, 15}, {5, 19},
      {5, 23}, {6, 9},  {6, 10}, {6, 11}, {6, 15}, {6, 19}, {6, 23}, {6, 27}};
  std::vector<std::vector<std::uint32_t>> combos;
  for (const LocalViolation& v : mc.violations()) combos.push_back(v.combo);
  EXPECT_EQ(combos, expected);
  EXPECT_EQ(mc.stats().soundness_deferred, 21u);
}

TEST(LocalMc, TimeBudgetRespected) {
  SystemConfig cfg = counter_cfg(4, 6);  // big space
  PingLimitInvariant inv(1u << 30);
  LocalMcOptions opt;
  opt.time_budget_s = 0.2;
  LocalModelChecker mc(cfg, &inv, opt);
  mc.run_from_initial();
  EXPECT_LT(mc.stats().elapsed_s, 5.0);
}

}  // namespace
}  // namespace lmc
