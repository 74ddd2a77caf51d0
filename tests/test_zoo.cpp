// Protocol zoo acceptance: every examples/zoo/*.lmc must parse, compile and
// validate; every spec's base configuration must pass the full DiffOracle
// cross-check (LMC vs global B-DFS) with zero disagreements; `expect
// violation` annotations must match what the checkers find, and buggy
// variants must actually exercise witness replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/local_mc.hpp"

namespace lmc::dsl {
namespace {

namespace fs = std::filesystem;

// Set by tests/CMakeLists.txt.
const std::string kZooDir = LMC_ZOO_DIR;

std::vector<std::string> zoo_files() {
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(kZooDir))
    if (e.path().extension() == ".lmc") files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Zoo, DirectoryHasTheFourFamilies) {
  std::vector<std::string> files = zoo_files();
  ASSERT_GE(files.size(), 8u);
  for (const char* family : {"raft_election", "twophase", "chain_repl", "gossip"}) {
    bool found = std::any_of(files.begin(), files.end(), [&](const std::string& f) {
      return f.find(family) != std::string::npos;
    });
    EXPECT_TRUE(found) << "no zoo spec for family " << family;
  }
}

TEST(Zoo, EverySpecCompilesWithScenariosAndInvariants) {
  for (const std::string& file : zoo_files()) {
    SCOPED_TRACE(file);
    LoadResult r = load_file(file);
    ASSERT_TRUE(r.ok()) << r.diags.to_string();
    EXPECT_EQ(validate(*r.spec), "");
    EXPECT_FALSE(r.spec->invariants.empty());
    // Each zoo protocol ships a seeded lossy/timer scenario matrix.
    EXPECT_GE(r.spec->scenarios.size(), 2u);
    bool has_lossy = std::any_of(r.spec->scenarios.begin(), r.spec->scenarios.end(),
                                 [](const Scenario& s) { return s.drop_pct > 0; });
    EXPECT_TRUE(has_lossy);
    // Canonical emission of a zoo spec reloads to the identical spec.
    LoadResult r2 = load_text(to_lmc_text(*r.spec), file + ".canonical");
    ASSERT_TRUE(r2.ok()) << r2.diags.to_string();
    EXPECT_EQ(*r2.spec, *r.spec);
  }
}

TEST(Zoo, BaseConfigsPassDiffOracleAndMatchExpectations) {
  std::map<std::string, std::uint64_t> confirmed_by_file;
  for (const std::string& file : zoo_files()) {
    SCOPED_TRACE(file);
    LoadResult r = load_file(file);
    ASSERT_TRUE(r.ok()) << r.diags.to_string();
    CompiledProtocol p = instantiate(*r.spec);

    dfuzz::OracleOptions opt;
    opt.num_threads = 2;
    dfuzz::OracleReport rep = dfuzz::DiffOracle(opt).check(p.cfg, p.invariant.get());
    EXPECT_TRUE(rep.ok) << dfuzz::to_string(rep.failure) << ": " << rep.detail;
    EXPECT_TRUE(rep.conclusive) << rep.detail;
    EXPECT_EQ(r.spec->expect_violation, rep.lmc_confirmed > 0)
        << "confirmed=" << rep.lmc_confirmed;
    if (r.spec->expect_violation) {
      // Buggy variants must exercise the replay path, not just the search.
      EXPECT_GT(rep.witnesses_replayed, 0u);
    }
    confirmed_by_file[fs::path(file).filename().string()] = rep.lmc_confirmed;
  }
  // Pin the violation counts of the seeded buggy variants: a semantic
  // change to a zoo protocol (or to the checkers) must move these on
  // purpose.
  EXPECT_EQ(confirmed_by_file["raft_election_doublevote.lmc"], 24u);
  EXPECT_EQ(confirmed_by_file["twophase_early_commit.lmc"], 4u);
  EXPECT_EQ(confirmed_by_file["chain_repl_ack_early.lmc"], 2u);
  EXPECT_EQ(confirmed_by_file["gossip_split_brain.lmc"], 3u);
}

TEST(Zoo, ThreadCountByteIdenticalAcrossTheZoo) {
  // Phase 1 on the worker pool (DESIGN.md §12): every zoo spec explored
  // with 1 and 8 threads must leave the checker byte-identical once
  // wall-clock stats (and the resume segment stamp) are normalized away.
  for (const std::string& file : zoo_files()) {
    SCOPED_TRACE(file);
    LoadResult r = load_file(file);
    ASSERT_TRUE(r.ok()) << r.diags.to_string();
    CompiledProtocol p = instantiate(*r.spec);

    Blob base;
    for (unsigned threads : {1u, 8u}) {
      LocalMcOptions opt;
      opt.stop_on_confirmed = false;
      opt.num_threads = threads;
      opt.time_budget_s = 300;
      LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
      mc.run_from_initial();
      ASSERT_TRUE(mc.stats().completed) << threads << " threads";
      Blob norm = dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes());
      if (threads == 1)
        base = std::move(norm);
      else
        EXPECT_EQ(base, norm) << "checker state diverged at " << threads << " threads";
    }
  }
}

TEST(Zoo, SymmetryDifferentialAcrossTheZoo) {
  // Reduced-vs-unreduced differential over every zoo spec: the oracle
  // re-runs LMC with the reduction on and demands the confirmed sets agree
  // up to role permutation, with the reduced witnesses replayed. Specs
  // whose roles are not interchangeable exercise the silent-no-op path.
  std::uint64_t sym_checked = 0;
  for (const std::string& file : zoo_files()) {
    SCOPED_TRACE(file);
    LoadResult r = load_file(file);
    ASSERT_TRUE(r.ok()) << r.diags.to_string();
    CompiledProtocol p = instantiate(*r.spec);

    dfuzz::OracleOptions opt;
    opt.check_symmetry = true;
    dfuzz::OracleReport rep = dfuzz::DiffOracle(opt).check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << rep.detail;
    ASSERT_TRUE(rep.ok) << dfuzz::to_string(rep.failure) << ": " << rep.detail;
    if (rep.sym_checked) ++sym_checked;
  }
  EXPECT_GT(sym_checked, 0u) << "no zoo spec activated the reduction; the gate is vacuous";
}

TEST(Zoo, ThreadCountByteIdenticalWithSymmetry) {
  // The same gate with the symmetry reduction on (DESIGN.md §13). kAuto
  // activates wherever the compiler inferred interchangeable roles and the
  // spec's invariants are unordered; elsewhere it must behave as a no-op —
  // either way the normalized checkpoint must not depend on thread count.
  std::uint64_t active_specs = 0;
  for (const std::string& file : zoo_files()) {
    SCOPED_TRACE(file);
    LoadResult r = load_file(file);
    ASSERT_TRUE(r.ok()) << r.diags.to_string();
    CompiledProtocol p = instantiate(*r.spec);

    Blob base;
    for (unsigned threads : {1u, 8u}) {
      LocalMcOptions opt;
      opt.stop_on_confirmed = false;
      opt.num_threads = threads;
      opt.time_budget_s = 300;
      opt.symmetry.mode = symmetry::SymmetryMode::kAuto;
      LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
      mc.run_from_initial();
      ASSERT_TRUE(mc.stats().completed) << threads << " threads";
      if (threads == 1 && mc.stats().sym.active != 0) ++active_specs;
      Blob norm = dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes());
      if (threads == 1)
        base = std::move(norm);
      else
        EXPECT_EQ(base, norm) << "reduced checker state diverged at " << threads << " threads";
    }
  }
  EXPECT_GT(active_specs, 0u) << "no zoo spec activated the reduction; the gate is vacuous";
}

}  // namespace
}  // namespace lmc::dsl
