// Partial-order reduction (DESIGN.md §14): the reduced-vs-unreduced
// differential battery over the frozen fuzz corpus, the symmetric
// generator and the zoo; 1-vs-8-thread byte identity; checkpoint v5
// section-14 round-trips (including the deferred-pair tail); the
// mode/digest resume guards; and the Paxos prune-effectiveness floor that
// keeps the whole apparatus from silently degrading to a no-op.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/local_mc.hpp"
#include "persist/checkpoint.hpp"
#include "protocols/paxos.hpp"

namespace lmc {
namespace {

using indep::PorMode;

// Set by tests/CMakeLists.txt.
const std::string kZooDir = LMC_ZOO_DIR;

LocalMcOptions por_opts() {
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  opt.por.mode = PorMode::kOn;
  opt.por.audit = true;  // every prune decision re-executes both orders
  return opt;
}

SystemConfig paxos_cfg(std::uint32_t n, std::uint32_t proposers = 1) {
  paxos::DriverConfig d;
  d.proposers.clear();
  for (std::uint32_t p = 0; p < proposers; ++p) d.proposers.insert(p);
  d.max_proposals = 1;
  return paxos::make_config(n, paxos::CoreOptions{}, d);
}

// --- differential battery ---------------------------------------------------

TEST(PorDifferential, FrozenCorpusConfirmedSetsIdentical) {
  // Every frozen corpus seed through the oracle's POR mode: reduced and
  // unreduced confirmed sets must be EXACTLY equal (no permutation slack),
  // every reduced witness must replay, the commutation auditor runs at
  // every prune, and 1-vs-8-thread reduced runs must match byte for byte.
  dfuzz::OracleOptions oopt;
  oopt.check_por = true;
  dfuzz::DiffOracle oracle(oopt);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 1; i <= 50; ++i) seeds.push_back(i);
  for (std::uint64_t s : {97ull, 171ull, 664ull}) seeds.push_back(s);

  std::uint64_t por_checked = 0, pruned = 0, audits = 0;
  for (std::uint64_t seed : seeds) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << "seed " << seed << ": " << rep.detail;
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    if (rep.por_checked) ++por_checked;
    pruned += rep.por_pruned;
    audits += rep.por_audits;
  }
  EXPECT_GT(por_checked, 0u) << "no corpus seed activated the reduction; gate is vacuous";
  EXPECT_GT(pruned, 0u) << "the reduction activated but never pruned anything";
  EXPECT_EQ(audits, pruned) << "audit_every=1 must audit every prune decision";
}

TEST(PorDifferential, SymmetricGeneratorComposesWithSymmetry) {
  // POR on top of the symmetry reduction on the replicated-role generator:
  // both reductions active in the same run, both honesty checks in force.
  dfuzz::OracleOptions oopt;
  oopt.check_por = true;
  oopt.check_symmetry = true;
  dfuzz::DiffOracle oracle(oopt);

  std::uint64_t por_checked = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_symmetric_spec(seed));
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << "seed " << seed << ": " << rep.detail;
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    if (rep.por_checked) ++por_checked;
  }
  EXPECT_GT(por_checked, 0u);
}

TEST(PorDifferential, ZooSpecsAgree) {
  // Every hand-written zoo protocol through the same exact-equality check.
  std::uint64_t por_checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(kZooDir)) {
    if (entry.path().extension() != ".lmc") continue;
    dsl::LoadResult r = dsl::load_file(entry.path().string());
    ASSERT_TRUE(r.ok()) << entry.path() << ":\n" << r.diags.to_string();
    dsl::CompiledProtocol p = dsl::instantiate(*r.spec);
    dfuzz::OracleOptions oopt;
    oopt.check_por = true;
    dfuzz::DiffOracle oracle(oopt);
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << entry.path() << ": " << rep.detail;
    ASSERT_TRUE(rep.ok) << entry.path() << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    if (rep.por_checked) ++por_checked;
  }
  EXPECT_GT(por_checked, 0u) << "no zoo spec activated the reduction";
}

// --- effectiveness ----------------------------------------------------------

TEST(PorEffectiveness, PaxosPrunesWithExactStateAgreement) {
  // The reduction must actually reduce on Paxos (the bench gates >=2x; this
  // tier-1 floor is deliberately looser at >=1.5x) while traversing exactly
  // the same node-state set — sleep-set pruning skips deliveries, never
  // states.
  SystemConfig cfg = paxos_cfg(3);
  auto inv = paxos::make_agreement_invariant();
  LocalMcOptions plain_opt;
  plain_opt.stop_on_confirmed = false;
  plain_opt.enable_system_states = false;
  LocalModelChecker plain(cfg, inv.get(), plain_opt);
  plain.run_from_initial();
  ASSERT_TRUE(plain.stats().completed);
  EXPECT_EQ(plain.stats().por.active, 0u);

  LocalMcOptions red_opt = por_opts();
  red_opt.enable_system_states = false;
  LocalModelChecker reduced(cfg, inv.get(), red_opt);
  reduced.run_from_initial();
  ASSERT_TRUE(reduced.stats().completed);
  ASSERT_EQ(reduced.stats().por.active, 1u);
  EXPECT_GT(reduced.stats().por.relation_pairs, 0u);
  EXPECT_GT(reduced.stats().por.pairs_pruned, 0u);
  EXPECT_EQ(reduced.stats().por.audits, reduced.stats().por.pairs_pruned);
  EXPECT_EQ(reduced.stats().node_states, plain.stats().node_states);
  EXPECT_EQ(reduced.stats().confirmed_violations, plain.stats().confirmed_violations);
  EXPECT_GE(static_cast<double>(plain.stats().transitions),
            1.5 * static_cast<double>(reduced.stats().transitions));
}

TEST(PorEffectiveness, BoundedDepthDisablesTheReduction) {
  // Pruning first-discovery edges shifts recorded depths; under a depth
  // bound the shifted states would be truncated and children silently lost.
  // The activation guard must therefore refuse bounded runs.
  SystemConfig cfg = paxos_cfg(3);
  auto inv = paxos::make_agreement_invariant();
  for (int which = 0; which < 2; ++which) {
    LocalMcOptions opt = por_opts();
    opt.enable_system_states = false;
    if (which == 0)
      opt.max_total_depth = 6;
    else
      opt.max_chain_depth = 6;
    LocalModelChecker mc(cfg, inv.get(), opt);
    mc.run_from_initial();
    ASSERT_TRUE(mc.stats().completed);
    EXPECT_EQ(mc.stats().por.active, 0u) << (which == 0 ? "total" : "chain");
    EXPECT_EQ(mc.stats().por.pairs_pruned, 0u);
  }
}

// --- determinism ------------------------------------------------------------

TEST(PorDeterminism, EightThreadsByteIdenticalToOne) {
  SystemConfig cfg = paxos_cfg(3, /*proposers=*/2);
  auto inv = paxos::make_agreement_invariant();
  LocalMcOptions opt = por_opts();
  opt.enable_system_states = false;
  LocalModelChecker one(cfg, inv.get(), opt);
  one.run_from_initial();
  ASSERT_TRUE(one.stats().completed);
  ASSERT_GT(one.stats().por.pairs_pruned, 0u);

  LocalMcOptions opt8 = opt;
  opt8.num_threads = 8;
  LocalModelChecker eight(cfg, inv.get(), opt8);
  eight.run_from_initial();
  ASSERT_TRUE(eight.stats().completed);
  EXPECT_EQ(dfuzz::normalized_checkpoint_bytes(one.checkpoint_bytes()),
            dfuzz::normalized_checkpoint_bytes(eight.checkpoint_bytes()));
}

// --- checkpoint/resume ------------------------------------------------------

std::string scratch_path(const char* tag) {
  return (std::filesystem::temp_directory_path() / (std::string("lmc_portest_") + tag + ".ckpt"))
      .string();
}

TEST(PorResume, SectionFourteenRoundTripsThroughTheCodec) {
  SystemConfig cfg = paxos_cfg(3);
  auto inv = paxos::make_agreement_invariant();
  LocalMcOptions opt = por_opts();
  opt.enable_system_states = false;
  LocalModelChecker mc(cfg, inv.get(), opt);
  mc.run_from_initial();
  ASSERT_TRUE(mc.stats().completed);
  ASSERT_EQ(mc.stats().por.active, 1u);

  const Blob bytes = mc.checkpoint_bytes();
  CheckerImage img = decode_checkpoint(bytes);
  EXPECT_TRUE(img.has_por);
  EXPECT_NE(img.por_digest, 0u);
  EXPECT_EQ(img.stats.por, mc.stats().por);
  // Canonical encoding: decode -> encode reproduces the input bytes.
  EXPECT_EQ(encode_checkpoint(img), bytes);

  const CheckpointInfo info = inspect_checkpoint(bytes);
  EXPECT_TRUE(info.has_por);
  EXPECT_EQ(info.por_digest, img.por_digest);
  EXPECT_EQ(info.stats.por.pairs_pruned, mc.stats().por.pairs_pruned);
}

TEST(PorResume, InterruptedRunResumesByteIdentically) {
  // Interrupt mid-run — with POR on, the checkpoint must carry the pruner's
  // forward records AND any pairs deferred one generation whose retry had
  // not happened yet; the resumed run must land byte-identical to the
  // straight one.
  SystemConfig cfg = paxos_cfg(3);
  auto inv = paxos::make_agreement_invariant();
  LocalMcOptions opt = por_opts();
  opt.enable_system_states = false;
  LocalModelChecker straight(cfg, inv.get(), opt);
  straight.run_from_initial();
  ASSERT_TRUE(straight.stats().completed);
  ASSERT_GT(straight.stats().por.deferrals, 0u) << "test must exercise the deferred-pair tail";

  bool exercised_deferred_tail = false;
  for (std::uint64_t cut = 2; cut + 1 < straight.stats().transitions; cut += 3) {
    LocalMcOptions half = opt;
    half.max_transitions = cut;
    LocalModelChecker interrupted(cfg, inv.get(), half);
    interrupted.run_from_initial();
    if (interrupted.stats().completed) break;
    const Blob bytes = interrupted.checkpoint_bytes();
    if (decode_checkpoint(bytes).por_deferred.empty()) continue;
    exercised_deferred_tail = true;

    const std::string path = scratch_path("resume");
    interrupted.save_checkpoint(path);
    LocalModelChecker resumed(cfg, inv.get(), opt);
    resumed.run_resumed(path);
    std::remove(path.c_str());
    ASSERT_TRUE(resumed.stats().completed);
    EXPECT_EQ(resumed.stats().por.pairs_pruned, straight.stats().por.pairs_pruned);
    EXPECT_EQ(dfuzz::normalized_checkpoint_bytes(resumed.checkpoint_bytes()),
              dfuzz::normalized_checkpoint_bytes(straight.checkpoint_bytes()));
    break;
  }
  EXPECT_TRUE(exercised_deferred_tail)
      << "no interruption point left a deferred pair in flight; widen the cut sweep";
}

TEST(PorResume, ModeAndDigestMismatchesOnLoadThrow) {
  SystemConfig cfg = paxos_cfg(3);
  auto inv = paxos::make_agreement_invariant();
  LocalMcOptions on = por_opts();
  on.enable_system_states = false;
  LocalModelChecker writer(cfg, inv.get(), on);
  writer.run_from_initial();
  ASSERT_EQ(writer.stats().por.active, 1u);
  const std::string path = scratch_path("mismatch");
  writer.save_checkpoint(path);

  // A pruned checkpoint resumed without the reduction would under-explore
  // (and vice versa): refuse loudly.
  LocalMcOptions off;
  off.stop_on_confirmed = false;
  off.enable_system_states = false;
  LocalModelChecker off_mc(cfg, inv.get(), off);
  EXPECT_THROW(off_mc.load_checkpoint(path), CheckpointError);

  // Same mode, different relation: the digest guard must reject footprints
  // that derive a different independence relation than the writer pruned
  // under. A declared self-pair is never derived statically, so admitting
  // one is guaranteed to change the relation.
  SystemConfig declared = cfg;
  auto extra = std::make_shared<ProtocolFootprints>(*cfg.footprints);
  extra->nodes[0].declared_independent.push_back({true, 0, true, 0, "forged for the test"});
  declared.footprints = extra;
  LocalModelChecker other(declared, inv.get(), on);
  EXPECT_THROW(other.load_checkpoint(path), CheckpointError);

  LocalModelChecker plain_writer(cfg, inv.get(), off);
  plain_writer.run_from_initial();
  plain_writer.save_checkpoint(path);
  LocalModelChecker on_mc(cfg, inv.get(), on);
  EXPECT_THROW(on_mc.load_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lmc
