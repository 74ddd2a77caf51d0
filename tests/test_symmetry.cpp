// Symmetry reduction for replicated roles (DESIGN.md §13): orbit-size math,
// canonicalizer identities, class inference, and the reduced-vs-unreduced
// differential battery that keeps the reduction honest — confirmed
// violations must agree with the plain checker up to within-class
// permutation, on the frozen fuzz corpus, on purpose-built symmetric
// protocols, and under deliberately WRONG class hints (the reduction is
// unconditionally sound; hints only steer enumeration).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/local_mc.hpp"
#include "mc/symmetry/canonicalizer.hpp"
#include "mc/symmetry/role_group.hpp"
#include "persist/checkpoint.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

using symmetry::Canonicalizer;
using symmetry::SymmetryMode;

// --- orbit-size math --------------------------------------------------------

TEST(SymmetryMath, MultisetOrbitSize) {
  // c! / prod(mult_k!): all-equal collapses to one arrangement, all-distinct
  // to c!, and mixed multiplicities to the multinomial coefficient.
  EXPECT_EQ(symmetry::multiset_orbit_size({3}), 1u);
  EXPECT_EQ(symmetry::multiset_orbit_size({1, 1, 1}), 6u);
  EXPECT_EQ(symmetry::multiset_orbit_size({2, 1}), 3u);
  EXPECT_EQ(symmetry::multiset_orbit_size({2, 2}), 6u);
  EXPECT_EQ(symmetry::multiset_orbit_size({3, 1, 1}), 20u);
  // 20 distinct values fit (20! < 2^64), 21 saturate.
  EXPECT_EQ(symmetry::multiset_orbit_size(std::vector<std::uint32_t>(20, 1)),
            2'432'902'008'176'640'000ull);
  EXPECT_EQ(symmetry::multiset_orbit_size(std::vector<std::uint32_t>(21, 1)), UINT64_MAX);
}

TEST(SymmetryMath, SatAdd) {
  EXPECT_EQ(symmetry::sat_add(1, 2), 3u);
  EXPECT_EQ(symmetry::sat_add(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(symmetry::sat_add(UINT64_MAX - 1, 1), UINT64_MAX);
}

TEST(SymmetryMath, NormalizeClasses) {
  // Members sorted + deduped, singletons dropped, classes ordered by first
  // member.
  auto c = symmetry::normalize_classes({{3, 1, 3}, {2}, {5, 4}}, 6);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(c[1], (std::vector<NodeId>{4, 5}));
  EXPECT_THROW(symmetry::normalize_classes({{0, 1}, {1, 2}}, 3), std::invalid_argument);
  EXPECT_THROW(symmetry::normalize_classes({{0, 7}}, 3), std::invalid_argument);
}

TEST(SymmetryMath, CanonicalKeyIsPermutationInvariantWithinClasses) {
  const std::vector<Hash64> t = {10, 20, 30, 40};
  const std::vector<std::vector<NodeId>> cls = {{1, 2}};
  // Swapping the class members' states preserves the key; permuting states
  // across a class boundary, or having no classes at all, does not.
  EXPECT_EQ(symmetry::canonical_key({10, 20, 30, 40}, cls),
            symmetry::canonical_key({10, 30, 20, 40}, cls));
  EXPECT_NE(symmetry::canonical_key({10, 20, 30, 40}, cls),
            symmetry::canonical_key({40, 20, 30, 10}, cls));
  EXPECT_NE(symmetry::canonical_key(t, cls), symmetry::canonical_key(t, {}));
}

// --- class inference --------------------------------------------------------

// Star: node 0 broadcasts one type to 1..3; members reply to the sender.
std::vector<symmetry::NodeSig> star_sigs() {
  std::vector<symmetry::NodeSig> sigs(4);
  symmetry::RuleSig drv;
  drv.guard = 0;
  drv.goto_state = 1;
  for (NodeId m = 1; m < 4; ++m) drv.sends.push_back({false, m, 0});
  sigs[0].internals.push_back(drv);
  for (NodeId m = 1; m < 4; ++m) {
    symmetry::RuleSig r;
    r.trigger = 0;
    r.guard = 0;
    r.goto_state = 1;
    r.sends.push_back({true, 0, 1});  // reply to sender
    sigs[m].msgs.push_back(r);
  }
  return sigs;
}

TEST(SymmetryInference, StarMembersFormOneClass) {
  auto classes = symmetry::infer_classes(star_sigs());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], (std::vector<NodeId>{1, 2, 3}));
}

TEST(SymmetryInference, DivergentMemberIsExcluded) {
  auto sigs = star_sigs();
  sigs[2].msgs[0].goto_state = 2;  // node 2 behaves differently
  auto classes = symmetry::infer_classes(sigs);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], (std::vector<NodeId>{1, 3}));
}

TEST(SymmetryInference, CrossSendsBlockMerging) {
  // Members that address each other BY ID are not interchangeable unless
  // the id pattern itself is an automorphism: a chain 1->2->3 is not.
  auto sigs = star_sigs();
  sigs[1].msgs[0].sends.push_back({false, 2, 0});
  sigs[2].msgs[0].sends.push_back({false, 3, 0});
  sigs[3].msgs[0].sends.push_back({false, 1, 0});
  auto classes = symmetry::infer_classes(sigs);
  // The 3-cycle is rotation-symmetric but NOT transposition-symmetric, and
  // the reduction only models full symmetric groups per class.
  EXPECT_TRUE(classes.empty());
}

TEST(SymmetryInference, PaxosNonProposersAreHinted) {
  SystemConfig cfg = paxos::make_config(5, paxos::CoreOptions{}, paxos::DriverConfig{{0}, 1});
  ASSERT_EQ(cfg.symmetric_roles.size(), 1u);
  EXPECT_EQ(cfg.symmetric_roles[0], (std::vector<NodeId>{1, 2, 3, 4}));
  // All-proposer configs have no replicated non-proposer role.
  SystemConfig all = paxos::make_config(3, paxos::CoreOptions{},
                                        paxos::DriverConfig{{0, 1, 2}, 1});
  EXPECT_TRUE(all.symmetric_roles.empty());
}

TEST(SymmetryInference, DslRolesAreInferredAndDsl10WarnsOnAsymmetry) {
  // Replicated workers: identical elaborated tables -> one class, no DSL10.
  const char* symmetric = R"(protocol sym_ok {
  nodes 4;
  role boss = 0;
  role worker = 1 .. n - 1;
  states idle, busy, done;
  messages Go, Done;
  timer kick at boss @ idle -> busy { send Go to worker; }
  on Go at worker @ idle -> busy { send Done to sender; }
  on Done at boss @ busy -> done { }
  invariant spread: never {done} with {busy};
})";
  dsl::LoadResult ok = dsl::load_text(symmetric, "sym_ok.lmc");
  ASSERT_TRUE(ok.ok()) << ok.diags.to_string();
  EXPECT_TRUE(ok.diags.items().empty()) << ok.diags.to_string();
  dsl::CompiledProtocol p = dsl::instantiate(*ok.spec);
  ASSERT_EQ(p.cfg.symmetric_roles.size(), 1u);
  EXPECT_EQ(p.cfg.symmetric_roles[0], (std::vector<NodeId>{1, 2, 3}));

  // A chain role addresses successors positionally: after elaboration each
  // link's send targets a DIFFERENT concrete id, so the members are not
  // interchangeable and the role hint earns a DSL10 warning — but the
  // protocol stays perfectly compilable.
  const char* chain = R"(protocol sym_chain {
  nodes 4;
  role head = 0;
  role link = 1 .. n - 2;
  role tail = n - 1;
  states idle, seen;
  messages Tok;
  timer kick at head @ idle -> seen { send Tok to next; }
  on Tok at link @ idle -> seen { send Tok to next; }
  on Tok at tail @ idle -> seen { }
  invariant one: never {seen} with {idle};
})";
  dsl::LoadResult warned = dsl::load_text(chain, "sym_chain.lmc");
  ASSERT_TRUE(warned.ok()) << warned.diags.to_string();
  const bool has_dsl10 =
      std::any_of(warned.diags.items().begin(), warned.diags.items().end(),
                  [](const dsl::Diag& d) { return d.code == "DSL10"; });
  EXPECT_TRUE(has_dsl10) << warned.diags.to_string();
}

// --- canonicalizer ----------------------------------------------------------

TEST(CanonicalizerTest, OrbitKeyStableUnderUniverseGrowthAndIdempotent) {
  Canonicalizer canon({{1, 2, 3}}, 4);
  EXPECT_EQ(canon.class_of(0), -1);
  EXPECT_EQ(canon.class_of(2), 0);
  EXPECT_EQ(canon.member_pos(3), 2u);
  ASSERT_EQ(canon.free_nodes(), (std::vector<NodeId>{0}));

  EXPECT_TRUE(canon.add_state(1, 100));
  EXPECT_TRUE(canon.add_state(2, 100));
  EXPECT_TRUE(canon.add_state(3, 200));
  EXPECT_FALSE(canon.add_state(2, 100));  // duplicate (hash, member)
  EXPECT_FALSE(canon.add_state(0, 999));  // free node: universe no-op...
  EXPECT_EQ(canon.universe(0).entries().size(), 2u);

  // counts over the sorted universe {100 -> mask 0b011, 200 -> mask 0b100}.
  const std::vector<std::pair<NodeId, Hash64>> fixed = {{0, 7}};
  const Hash64 key = canon.orbit_key(fixed, {{2, 1}});
  EXPECT_EQ(key, canon.orbit_key(fixed, {{2, 1}}));  // idempotent
  EXPECT_EQ(canon.orbit_size({{2, 1}}), 3u);
  EXPECT_EQ(canon.orbit_size({{3, 0}}), 1u);

  // Growing the universe must not move existing keys (entry hashes are
  // folded, not indices) — counts just gain a zero column.
  EXPECT_TRUE(canon.add_state(1, 50));  // sorts BEFORE 100
  EXPECT_EQ(canon.universe(0).entries().size(), 3u);
  EXPECT_EQ(canon.orbit_key(fixed, {{0, 2, 1}}), key);
}

TEST(CanonicalizerTest, SeenSetMarksAndRestores) {
  Canonicalizer canon({{0, 1}}, 2);
  EXPECT_FALSE(canon.seen_or_mark(11));
  EXPECT_FALSE(canon.seen_or_mark(7));
  EXPECT_TRUE(canon.seen_or_mark(11));
  EXPECT_EQ(canon.seen_count(), 2u);
  EXPECT_EQ(canon.seen_sorted(), (std::vector<Hash64>{7, 11}));

  Canonicalizer fresh({{0, 1}}, 2);
  fresh.restore_seen(canon.seen_sorted());
  EXPECT_TRUE(fresh.seen_or_mark(7));
  EXPECT_TRUE(fresh.seen_or_mark(11));
  EXPECT_FALSE(fresh.seen_or_mark(13));
}

TEST(CanonicalizerTest, EnumerationWalksExactlyTheRealizableMultisets) {
  // Universe: h=10 held by members {0,1}, h=20 by members {0,1,2}.
  Canonicalizer canon({{5, 6, 7}}, 8);
  canon.add_state(5, 10);
  canon.add_state(6, 10);
  canon.add_state(5, 20);
  canon.add_state(6, 20);
  canon.add_state(7, 20);

  std::vector<std::vector<std::uint32_t>> seen;
  EXPECT_TRUE(canon.for_each_multiset(0, -1, [&](const std::vector<std::uint32_t>& m) {
    seen.push_back(m);
    return true;
  }));
  // Size-3 multisets over {10, 20}: (3,0) needs three holders of 10 — only
  // two exist, so Kuhn prunes it; everything else is realizable.
  std::vector<std::vector<std::uint32_t>> expect = {{0, 3}, {1, 2}, {2, 1}};
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, expect);

  // forced = only multisets using entry 0 (h=10).
  std::size_t forced_count = 0;
  EXPECT_TRUE(canon.for_each_multiset(0, 0, [&](const std::vector<std::uint32_t>& m) {
    EXPECT_GT(m[0], 0u);
    ++forced_count;
    return true;
  }));
  EXPECT_EQ(forced_count, 2u);

  // Concretization: (2,1) pins members 0,1 to h=10, member 2 to h=20 — a
  // single perfect assignment; (1,2) admits two (member 0 or 1 takes h=10).
  EXPECT_EQ(canon.first_assignment(0, {2, 1}), (std::vector<std::size_t>{0, 0, 1}));
  std::size_t assignments = 0;
  EXPECT_TRUE(canon.for_each_assignment(0, {1, 2}, [&](const std::vector<std::size_t>&) {
    ++assignments;
    return true;
  }));
  EXPECT_EQ(assignments, 2u);
}

// --- checker integration ----------------------------------------------------

dsl::DslSpec spec_of(const char* text) {
  dsl::LoadResult r = dsl::load_text(text, "hand.lmc");
  EXPECT_TRUE(r.ok()) << r.diags.to_string();
  return r.ok() ? *r.spec : dsl::DslSpec{};
}

// Two structurally different nodes: kAuto must resolve to INACTIVE and the
// run must be byte-for-byte the plain run (the checkpoint then has no
// symmetry section, so normalized bytes compare equal across modes).
dsl::DslSpec asymmetric_spec() {
  return spec_of(
      "protocol asym {\n"
      "  nodes 2;\n"
      "  states s0, s1, s2;\n"
      "  messages m0;\n"
      "  internal r0 at 0 @ s0 -> s1 { send m0 to node 1 tag 5; }\n"
      "  on m0 at 1 @ s0 -> s2;\n"
      "  invariant mutex: never s1 with s2;\n"
      "}\n");
}

TEST(SymmetryChecker, AsymmetricProtocolIsAByteIdenticalNoOp) {
  dsl::CompiledProtocol p = dsl::instantiate(asymmetric_spec());
  EXPECT_TRUE(p.cfg.symmetric_roles.empty());

  LocalMcOptions off;
  off.stop_on_confirmed = false;
  LocalModelChecker a(p.cfg, p.invariant.get(), off);
  a.run_from_initial();

  LocalMcOptions on = off;
  on.symmetry.mode = SymmetryMode::kAuto;
  LocalModelChecker b(p.cfg, p.invariant.get(), on);
  b.run_from_initial();

  EXPECT_EQ(b.stats().sym.active, 0u);
  EXPECT_TRUE(b.symmetry_classes().empty());
  EXPECT_EQ(dfuzz::normalized_checkpoint_bytes(a.checkpoint_bytes()),
            dfuzz::normalized_checkpoint_bytes(b.checkpoint_bytes()));
}

// Violation-bearing spec whose hinted "class" is NOT actually symmetric:
// node 2 pokes node 0, node 1 does not. The reduction must still confirm
// exactly the unreduced violations (up to the permutation the wrong hint
// claims) — hints steer enumeration, soundness never depends on them.
dsl::DslSpec wrong_hint_spec() {
  return spec_of(
      "protocol wrong_hint {\n"
      "  nodes 3;\n"
      "  states s0, s1;\n"
      "  messages m0;\n"
      "  internal r0 at 1 @ s0 -> s1;\n"
      "  internal r1 at 2 @ s0 -> s1 { send m0 to node 0 tag 9; }\n"
      "  invariant mutex: never s1 with s1;  # two distinct nodes in s1\n"
      "}\n");
}

TEST(SymmetryChecker, WrongExplicitHintIsStillSound) {
  dsl::CompiledProtocol p = dsl::instantiate(wrong_hint_spec());

  LocalMcOptions off;
  off.stop_on_confirmed = false;
  LocalModelChecker a(p.cfg, p.invariant.get(), off);
  a.run_from_initial();
  ASSERT_TRUE(a.stats().completed);
  ASSERT_GT(a.stats().confirmed_violations, 0u);

  LocalMcOptions on = off;
  on.symmetry.mode = SymmetryMode::kExplicit;
  on.symmetry.classes = {{1, 2}};  // wrong: 1 and 2 do not mirror each other
  LocalModelChecker b(p.cfg, p.invariant.get(), on);
  b.run_from_initial();
  ASSERT_TRUE(b.stats().completed);
  ASSERT_EQ(b.stats().sym.active, 1u);

  auto canon_set = [&](const LocalModelChecker& mc) {
    std::vector<Hash64> keys;
    for (const LocalViolation& v : mc.violations())
      if (v.confirmed) keys.push_back(symmetry::canonical_key(v.state_hashes, {{1, 2}}));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  };
  EXPECT_EQ(canon_set(a), canon_set(b));
}

TEST(SymmetryChecker, MalformedExplicitClassesThrow) {
  dsl::CompiledProtocol p = dsl::instantiate(wrong_hint_spec());
  LocalMcOptions opt;
  opt.symmetry.mode = SymmetryMode::kExplicit;
  opt.symmetry.classes = {{0, 1}, {1, 2}};  // overlapping
  LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
  EXPECT_THROW(mc.run_from_initial(), std::invalid_argument);
}

TEST(SymmetryChecker, ReductionShrinksExploredCombinationsOnSymmetricSpecs) {
  // On a protocol with a genuine replicated role the orbit count must be
  // strictly below the ordered-combination count, with the gap accounted
  // for by the represented-arrangements counter.
  std::size_t reduced_runs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_symmetric_spec(seed));
    LocalMcOptions off;
    off.stop_on_confirmed = false;
    LocalModelChecker a(p.cfg, p.invariant.get(), off);
    a.run_from_initial();
    ASSERT_TRUE(a.stats().completed) << "seed " << seed;

    LocalMcOptions on = off;
    on.symmetry.mode = SymmetryMode::kAuto;
    LocalModelChecker b(p.cfg, p.invariant.get(), on);
    b.run_from_initial();
    ASSERT_TRUE(b.stats().completed) << "seed " << seed;
    if (b.stats().sym.active == 0) continue;

    EXPECT_LE(b.stats().system_states, a.stats().system_states) << "seed " << seed;
    EXPECT_EQ(b.stats().system_states, b.stats().sym.orbits) << "seed " << seed;
    EXPECT_GE(b.stats().sym.represented, a.stats().system_states) << "seed " << seed;
    if (b.stats().system_states < a.stats().system_states) ++reduced_runs;
  }
  EXPECT_GT(reduced_runs, 0u) << "no symmetric seed actually reduced anything";
}

// --- differential battery ---------------------------------------------------

TEST(SymmetryDifferential, FrozenCorpusAgreesUpToPermutation) {
  // Every corpus seed (1..50 + pinned regressions) through the oracle's
  // symmetry mode: reduced and unreduced confirmed sets must match up to
  // within-class permutation, and reduced witnesses must replay.
  dfuzz::OracleOptions oopt;
  oopt.check_symmetry = true;
  dfuzz::DiffOracle oracle(oopt);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 1; i <= 50; ++i) seeds.push_back(i);
  for (std::uint64_t s : {97ull, 171ull, 664ull}) seeds.push_back(s);

  std::uint64_t sym_checked = 0;
  for (std::uint64_t seed : seeds) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << "seed " << seed << ": " << rep.detail;
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    if (rep.sym_checked) ++sym_checked;
  }
  EXPECT_GT(sym_checked, 0u) << "no corpus seed activated the reduction; gate is vacuous";
}

TEST(SymmetryDifferential, SymmetricGeneratorSweepAgreesUpToPermutation) {
  // Purpose-built replicated-role protocols: most seeds must activate the
  // reduction, and the sweep must cover violation-bearing specs too.
  dfuzz::OracleOptions oopt;
  oopt.check_symmetry = true;
  dfuzz::DiffOracle oracle(oopt);

  std::uint64_t sym_checked = 0, with_violations = 0, orbits = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    dsl::DslSpec spec = dfuzz::generate_symmetric_spec(seed);
    ASSERT_EQ(dsl::validate(spec), "") << "seed " << seed;
    dsl::CompiledProtocol p = dsl::instantiate(spec);
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << "seed " << seed << ": " << rep.detail;
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    if (rep.sym_checked) ++sym_checked;
    if (rep.gmc_violation_tuples > 0) ++with_violations;
    orbits += rep.sym_orbits;
  }
  EXPECT_GT(sym_checked, 15u) << "the symmetric generator should activate on most seeds";
  EXPECT_GT(with_violations, 0u);
  EXPECT_GT(orbits, 0u);
}

// --- checkpoint/resume ------------------------------------------------------

std::string scratch_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("lmc_symtest_") + tag + ".ckpt"))
      .string();
}

TEST(SymmetryResume, InterruptedRunResumesByteIdentically) {
  // Find a symmetric seed with enough transitions to interrupt mid-way.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_symmetric_spec(seed));
    LocalMcOptions opt;
    opt.stop_on_confirmed = false;
    opt.symmetry.mode = SymmetryMode::kAuto;
    LocalModelChecker straight(p.cfg, p.invariant.get(), opt);
    straight.run_from_initial();
    ASSERT_TRUE(straight.stats().completed);
    if (straight.stats().sym.active == 0 || straight.stats().transitions < 8) continue;

    LocalMcOptions half = opt;
    half.max_transitions = straight.stats().transitions / 2;
    LocalModelChecker interrupted(p.cfg, p.invariant.get(), half);
    interrupted.run_from_initial();
    const std::string path = scratch_path("resume");
    interrupted.save_checkpoint(path);

    LocalModelChecker resumed(p.cfg, p.invariant.get(), opt);
    resumed.run_resumed(path);
    std::remove(path.c_str());
    ASSERT_TRUE(resumed.stats().completed);
    EXPECT_EQ(resumed.stats().sym, straight.stats().sym);
    EXPECT_EQ(dfuzz::normalized_checkpoint_bytes(resumed.checkpoint_bytes()),
              dfuzz::normalized_checkpoint_bytes(straight.checkpoint_bytes()));
    return;  // one qualifying seed is the test
  }
  FAIL() << "no symmetric seed with an interruptible run found";
}

TEST(SymmetryResume, ModeMismatchOnLoadThrows) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_symmetric_spec(seed));
    LocalMcOptions on;
    on.stop_on_confirmed = false;
    on.symmetry.mode = SymmetryMode::kAuto;
    LocalModelChecker writer(p.cfg, p.invariant.get(), on);
    writer.run_from_initial();
    if (writer.stats().sym.active == 0) continue;
    const std::string path = scratch_path("mismatch");
    writer.save_checkpoint(path);

    // A reduced checkpoint resumed without the reduction (or vice versa)
    // would splice an orbit seen-set into an ordered-combination run:
    // refuse loudly instead of silently under- or over-exploring.
    LocalMcOptions off_opt;
    off_opt.stop_on_confirmed = false;
    LocalModelChecker off_mc(p.cfg, p.invariant.get(), off_opt);
    EXPECT_THROW(off_mc.load_checkpoint(path), CheckpointError);

    LocalModelChecker off_writer(p.cfg, p.invariant.get(), off_opt);
    off_writer.run_from_initial();
    off_writer.save_checkpoint(path);
    LocalModelChecker on_mc(p.cfg, p.invariant.get(), on);
    EXPECT_THROW(on_mc.load_checkpoint(path), CheckpointError);
    std::remove(path.c_str());
    return;
  }
  FAIL() << "no symmetric seed activated the reduction";
}

TEST(SymmetryResume, InspectSummarizesSymmetrySection) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_symmetric_spec(seed));
    LocalMcOptions on;
    on.stop_on_confirmed = false;
    on.symmetry.mode = SymmetryMode::kAuto;
    LocalModelChecker writer(p.cfg, p.invariant.get(), on);
    writer.run_from_initial();
    if (writer.stats().sym.active == 0) continue;

    // The cheap inspection path must surface the section 13 summary without
    // a full decode, matching the live counters it was written from.
    const CheckpointInfo info = inspect_checkpoint(writer.checkpoint_bytes());
    EXPECT_TRUE(info.has_symmetry);
    EXPECT_EQ(info.stats.sym.orbits, writer.stats().sym.orbits);
    EXPECT_EQ(info.stats.sym.classes, writer.stats().sym.classes);
    EXPECT_EQ(info.stats.sym.represented, writer.stats().sym.represented);
    EXPECT_GT(info.sym_seen, 0u);

    LocalMcOptions off_opt;
    off_opt.stop_on_confirmed = false;
    LocalModelChecker plain(p.cfg, p.invariant.get(), off_opt);
    plain.run_from_initial();
    EXPECT_FALSE(inspect_checkpoint(plain.checkpoint_bytes()).has_symmetry);
    return;
  }
  FAIL() << "no symmetric seed activated the reduction";
}

}  // namespace
}  // namespace lmc
