// Online model checking: live-runner determinism, snapshots, and the
// CrystalBall loop rediscovering the §5.5 and §5.6 bugs end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>

#include "mc/replay.hpp"
#include "online/crystalball.hpp"
#include "online/live_runner.hpp"
#include "online/snapshot.hpp"
#include "protocols/onepaxos.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

SystemConfig live_paxos_cfg(bool bug) {
  paxos::DriverConfig d;
  d.proposers = {0, 1, 2};
  d.max_proposals = 3;
  d.allow_fresh_index = true;  // live driver proposes for new indexes (§5.5)
  return paxos::make_config(3, paxos::CoreOptions{0, bug}, d);
}

SystemConfig checker_paxos_cfg(bool bug) {
  paxos::DriverConfig d;
  d.proposers = {0, 1, 2};
  d.max_proposals = 4;          // at least one more proposal per node
  d.allow_fresh_index = false;  // bounded checker driver
  return paxos::make_config(3, paxos::CoreOptions{0, bug}, d);
}

LiveOptions live_opts(std::uint64_t seed) {
  LiveOptions o;
  o.seed = seed;
  o.transport.drop_prob = 0.3;  // §5.5: 30% of non-loopback messages dropped
  o.app_min = 0.0;
  o.app_max = 60.0;  // propose, then sleep 0..60 s
  return o;
}

TEST(LiveRunner, DeterministicUnderSeed) {
  SystemConfig cfg = live_paxos_cfg(false);
  LiveRunner a(cfg, live_opts(7), first_enabled_driver());
  LiveRunner b(cfg, live_opts(7), first_enabled_driver());
  a.run_until(300);
  b.run_until(300);
  EXPECT_EQ(a.nodes(), b.nodes());
  EXPECT_EQ(a.delivered(), b.delivered());
  EXPECT_EQ(a.snapshot().in_flight.size(), b.snapshot().in_flight.size());
}

TEST(LiveRunner, DifferentSeedsDiverge) {
  SystemConfig cfg = live_paxos_cfg(false);
  LiveRunner a(cfg, live_opts(7), first_enabled_driver());
  LiveRunner b(cfg, live_opts(8), first_enabled_driver());
  a.run_until(300);
  b.run_until(300);
  EXPECT_NE(a.nodes(), b.nodes());
}

TEST(LiveRunner, ProgressAndDropsHappen) {
  SystemConfig cfg = live_paxos_cfg(false);
  LiveRunner r(cfg, live_opts(3), first_enabled_driver());
  r.run_until(600);
  EXPECT_GT(r.app_events(), 3u);        // inits + proposals fired
  EXPECT_GT(r.delivered(), 0u);
  EXPECT_GT(r.transport().dropped(), 0u);
  EXPECT_EQ(r.assert_failures(), 0u);
  // Consensus actually happens live: someone chose something.
  bool any_chosen = false;
  for (NodeId n = 0; n < 3; ++n)
    if (!paxos::chosen_map_of(cfg, n, r.nodes()[n]).empty()) any_chosen = true;
  EXPECT_TRUE(any_chosen);
}

TEST(LiveRunner, CorrectPaxosStaysConsistentForLong) {
  SystemConfig cfg = live_paxos_cfg(false);
  auto inv = paxos::make_agreement_invariant();
  LiveRunner r(cfg, live_opts(11), first_enabled_driver());
  for (double t = 60; t <= 1200; t += 60) {
    r.run_until(t);
    SystemStateView view;
    for (const Blob& b : r.nodes()) view.push_back(&b);
    ASSERT_TRUE(inv->holds(cfg, view)) << "live agreement broken at t=" << t;
  }
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  SystemConfig cfg = live_paxos_cfg(false);
  LiveRunner r(cfg, live_opts(5), first_enabled_driver());
  r.run_until(120);
  Snapshot s = r.snapshot();
  Snapshot back = Snapshot::decode(s.encode());
  EXPECT_EQ(s, back);
}

/// on_period hook asserting a period's search was never cut by the clock:
/// it exhausted its bounds, stopped on the transition cap, or stopped on a
/// confirmed violation (below the cap, with `completed` false).
std::function<void(const CrystalBallPeriod&)> expect_no_clock_stop(std::uint64_t cap) {
  return [cap](const CrystalBallPeriod& p) {
    EXPECT_TRUE(p.stats.completed || p.stats.transitions >= cap || p.found)
        << "period " << p.index << " stopped after " << p.stats.transitions << " transitions";
  };
}

TEST(CrystalBall, FindsWidsBugOnline) {
  // §5.5 end-to-end: live buggy Paxos + periodic LMC restarts. The paper
  // detected the bug after 1150 s of live time; we assert detection within
  // a comparable horizon (simulated time, wall cost is milliseconds).
  SystemConfig live_cfg = live_paxos_cfg(true);
  SystemConfig mc_cfg = checker_paxos_cfg(true);
  auto inv = paxos::make_agreement_invariant();
  LiveRunner live(live_cfg, live_opts(1), first_enabled_driver());

  // A fixed transition cap per period instead of a wall-clock budget, so
  // the detecting period does not depend on machine speed.
  constexpr std::uint64_t kCap = 100'000;
  CrystalBallOptions opt;
  opt.period = 60;
  opt.max_live_time = 3600;
  opt.mc.max_total_depth = 16;
  opt.mc.use_projection = true;
  opt.mc.max_transitions = kCap;
  int periods_seen = 0;
  opt.on_period = [&periods_seen, no_clock_stop = expect_no_clock_stop(kCap)](
                      const CrystalBallPeriod& p) {
    ++periods_seen;
    no_clock_stop(p);
  };
  CrystalBall cb(mc_cfg, inv.get(), live, opt);
  CrystalBallResult res = cb.run();

  ASSERT_TRUE(res.found) << "WiDS bug must surface within an hour of live time";
  EXPECT_EQ(res.runs, 2);
  EXPECT_EQ(periods_seen, res.runs);
  EXPECT_EQ(res.live_time, 120.0);
  EXPECT_TRUE(res.violation.confirmed);
  EXPECT_FALSE(res.violation.witness.empty());

  // The witness starts at the detecting period's snapshot; replay it from
  // there through the real handlers.
  ReplayResult rep = replay_schedule(mc_cfg, res.snapshot.nodes, res.snapshot.in_flight,
                                     res.violation.witness, res.events,
                                     res.violation.state_hashes);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(CrystalBall, CleanOnCorrectPaxos) {
  SystemConfig live_cfg = live_paxos_cfg(false);
  SystemConfig mc_cfg = checker_paxos_cfg(false);
  auto inv = paxos::make_agreement_invariant();
  LiveRunner live(live_cfg, live_opts(1), first_enabled_driver());

  // A fixed transition cap per period instead of a wall-clock budget, so the
  // searched space does not depend on machine speed.
  constexpr std::uint64_t kCap = 30'000;
  CrystalBallOptions opt;
  opt.period = 60;
  opt.max_live_time = 900;  // 15 checker runs
  opt.mc.max_total_depth = 14;
  opt.mc.use_projection = true;
  opt.mc.max_transitions = kCap;
  opt.on_period = expect_no_clock_stop(kCap);
  CrystalBall cb(mc_cfg, inv.get(), live, opt);
  CrystalBallResult res = cb.run();
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.runs, 15);
}

TEST(CrystalBall, FindsPlusPlusBugIn1Paxos) {
  // §5.6 end-to-end: fault-detector-driven 1Paxos with the ++ bug. The
  // paper found it in 225 s of live time.
  onepaxos::Options live_opt;
  live_opt.bug_postincrement_init = true;
  live_opt.max_proposals = 3;
  live_opt.max_leader_faults = 2;
  SystemConfig live_cfg = onepaxos::make_config(3, live_opt);

  onepaxos::Options mc_opt = live_opt;
  mc_opt.max_proposals = 4;
  SystemConfig mc_cfg = onepaxos::make_config(3, mc_opt);

  auto inv = onepaxos::make_agreement_invariant();
  LiveOptions lo = live_opts(2);
  LiveRunner live(live_cfg, lo, fault_injecting_driver(0.1, onepaxos::kEvSuspectLeader));

  constexpr std::uint64_t kCap = 100'000;  // per period; see FindsWidsBugOnline
  CrystalBallOptions opt;
  opt.period = 60;
  opt.max_live_time = 3600;
  opt.mc.max_total_depth = 12;
  opt.mc.use_projection = true;
  opt.mc.max_transitions = kCap;
  opt.on_period = expect_no_clock_stop(kCap);
  CrystalBall cb(mc_cfg, inv.get(), live, opt);
  CrystalBallResult res = cb.run();
  ASSERT_TRUE(res.found) << "1Paxos ++ bug must surface within an hour of live time";
  EXPECT_EQ(res.runs, 12);
  EXPECT_EQ(res.live_time, 720.0);
  EXPECT_TRUE(res.violation.confirmed);
}

TEST(CrystalBall, NoBugIn1PaxosWithoutInjection) {
  onepaxos::Options o;
  o.max_proposals = 3;
  o.max_leader_faults = 2;
  SystemConfig live_cfg = onepaxos::make_config(3, o);
  onepaxos::Options mo = o;
  mo.max_proposals = 4;
  SystemConfig mc_cfg = onepaxos::make_config(3, mo);
  auto inv = onepaxos::make_agreement_invariant();
  LiveRunner live(live_cfg, live_opts(2), fault_injecting_driver(0.1, onepaxos::kEvSuspectLeader));

  constexpr std::uint64_t kCap = 30'000;  // per period; see CleanOnCorrectPaxos
  CrystalBallOptions opt;
  opt.period = 60;
  opt.max_live_time = 600;
  opt.mc.max_total_depth = 10;
  opt.mc.use_projection = true;
  opt.mc.max_transitions = kCap;
  opt.on_period = expect_no_clock_stop(kCap);
  CrystalBall cb(mc_cfg, inv.get(), live, opt);
  EXPECT_FALSE(cb.run().found);
}

/// Forwards to another invariant and counts the LMC-OPT predicate calls.
class CountingInvariant final : public Invariant {
 public:
  explicit CountingInvariant(const Invariant& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool holds(const SystemConfig& cfg, const SystemStateView& sys) const override {
    return inner_.holds(cfg, sys);
  }
  bool has_projection() const override { return inner_.has_projection(); }
  Projection project(const SystemConfig& cfg, NodeId n, const Blob& state) const override {
    project_calls.fetch_add(1, std::memory_order_relaxed);
    return inner_.project(cfg, n, state);
  }
  bool projection_self_violates(const Projection& p) const override {
    self_calls.fetch_add(1, std::memory_order_relaxed);
    return inner_.projection_self_violates(p);
  }
  bool projections_conflict(const Projection& a, const Projection& b) const override {
    conflict_calls.fetch_add(1, std::memory_order_relaxed);
    return inner_.projections_conflict(a, b);
  }

  mutable std::atomic<std::uint64_t> project_calls{0};
  mutable std::atomic<std::uint64_t> self_calls{0};
  mutable std::atomic<std::uint64_t> conflict_calls{0};

 private:
  const Invariant& inner_;
};

TEST(OnlineOpt, SweepWorkIsBoundedByDistinctProjections) {
  // One lmcbench paxos-online period: correct Paxos at the 60 s snapshot of
  // live seed 1, depth 14, LMC-OPT, a fixed transition cap. Paxos states map
  // to a handful of distinct chosen-value projections per node, and the
  // predicates are pure, so each new mapped state may cost at most one
  // conflict test per distinct projection of every other node — not one
  // per mapped state.
  SystemConfig live_cfg = live_paxos_cfg(false);
  SystemConfig mc_cfg = checker_paxos_cfg(false);
  auto agreement = paxos::make_agreement_invariant();
  CountingInvariant inv(*agreement);
  LiveRunner live(live_cfg, live_opts(1), first_enabled_driver());
  live.run_until(60);
  Snapshot snap = live.snapshot();

  LocalMcOptions opt;
  opt.max_total_depth = 14;
  opt.use_projection = true;
  opt.max_transitions = 30'000;
  opt.stop_on_confirmed = false;
  LocalModelChecker mc(mc_cfg, &inv, opt);
  mc.run(snap.nodes, snap.in_flight);
  EXPECT_EQ(mc.stats().transitions, 30'000u);
  EXPECT_EQ(mc.stats().system_states, 0u);

  std::uint64_t max_distinct = 0;
  for (NodeId n = 0; n < mc_cfg.num_nodes; ++n) {
    std::set<Projection> distinct;
    for (std::uint32_t i = 0; i < mc.store().size(n); ++i) {
      Projection p = agreement->project(mc_cfg, n, mc.store().rec(n, i).blob);
      if (!p.empty()) distinct.insert(std::move(p));
    }
    max_distinct = std::max<std::uint64_t>(max_distinct, distinct.size());
  }
  const std::uint64_t states = mc.stats().node_states;
  const std::uint64_t bound = states * (mc_cfg.num_nodes - 1) * max_distinct;
  EXPECT_LE(inv.conflict_calls.load(), bound)
      << states << " node states, at most " << max_distinct << " distinct projections per node";
  EXPECT_LE(inv.self_calls.load(), states + bound);
}

TEST(OnlineOpt, ExploreModeProjectsNoState) {
  // LMC-explore (Fig. 13) checks no system state, so nothing reads a
  // projection and none is computed. A checker that checks system states
  // projects each stored state once — also when it loads the explore run's
  // checkpoint, whose store it indexes under its own options.
  SystemConfig live_cfg = live_paxos_cfg(false);
  SystemConfig mc_cfg = checker_paxos_cfg(false);
  auto agreement = paxos::make_agreement_invariant();
  LiveRunner live(live_cfg, live_opts(1), first_enabled_driver());
  live.run_until(60);
  Snapshot snap = live.snapshot();

  LocalMcOptions opt;
  opt.max_total_depth = 14;
  opt.use_projection = true;
  opt.max_transitions = 2'000;
  opt.enable_system_states = false;
  CountingInvariant explore_inv(*agreement);
  LocalModelChecker explore(mc_cfg, &explore_inv, opt);
  explore.run(snap.nodes, snap.in_flight);
  EXPECT_EQ(explore_inv.project_calls.load(), 0u);

  opt.enable_system_states = true;
  CountingInvariant opt_inv(*agreement);
  LocalModelChecker checked(mc_cfg, &opt_inv, opt);
  checked.run(snap.nodes, snap.in_flight);
  EXPECT_EQ(opt_inv.project_calls.load(), checked.stats().node_states);

  CountingInvariant load_inv(*agreement);
  LocalModelChecker loaded(mc_cfg, &load_inv, opt);
  loaded.load_checkpoint_bytes(explore.checkpoint_bytes());
  EXPECT_EQ(load_inv.project_calls.load(), explore.stats().node_states);
}

TEST(FaultDriver, FiresFaultsAtConfiguredRate) {
  std::mt19937_64 rng(3);
  AppDriver d = fault_injecting_driver(0.5, 99);
  std::vector<InternalEvent> enabled{InternalEvent{99, {}}, InternalEvent{1, {}}};
  int faults = 0;
  for (int i = 0; i < 2000; ++i) {
    auto pick = d(0, enabled, rng);
    ASSERT_TRUE(pick.has_value());
    if (pick->kind == 99) ++faults;
  }
  EXPECT_NEAR(faults / 2000.0, 0.5, 0.06);
}

}  // namespace
}  // namespace lmc
