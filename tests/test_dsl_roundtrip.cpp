// Generated specs <-> .lmc round-trip: the frozen 53-seed dfuzz corpus (1..50
// plus the historical regression seeds 97, 171, 664) must map through
// to_lmc_text -> parse/compile back to the exact same spec, and the
// re-parsed protocol must explore identically — byte-identical normalized
// LMC checkpoints at 1 and 8 threads. That is the claim a repro artifact
// makes, so the artifact writer that lmc_fuzz --out-dir goes through is
// covered here too.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dfuzz/artifacts.hpp"
#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dfuzz/shrink.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "mc/local_mc.hpp"

namespace lmc::dfuzz {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint64_t> corpus_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 50; ++s) seeds.push_back(s);
  seeds.push_back(97);
  seeds.push_back(171);
  seeds.push_back(664);
  return seeds;
}

dsl::DslSpec reparse(const dsl::DslSpec& spec, const std::string& label) {
  std::string text = dsl::to_lmc_text(spec);
  dsl::LoadResult r = dsl::load_text(text, label + ".lmc");
  EXPECT_TRUE(r.ok()) << r.diags.to_string() << "\n--- emitted text ---\n" << text;
  return r.ok() ? *r.spec : dsl::DslSpec{};
}

Blob lmc_checkpoint(const dsl::DslSpec& spec, unsigned threads) {
  dsl::CompiledProtocol p = dsl::instantiate(spec);
  LocalMcOptions opt;
  opt.stop_on_confirmed = false;
  opt.num_threads = threads;
  LocalModelChecker l(p.cfg, p.invariant.get(), opt);
  l.run_from_initial();
  return normalized_checkpoint_bytes(l.checkpoint_bytes());
}

TEST(DslRoundTrip, FrozenCorpusIsTextRoundTrippable) {
  for (std::uint64_t seed : corpus_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    dsl::DslSpec spec = generate_spec(seed);
    dsl::DslSpec back = reparse(spec, "seed" + std::to_string(seed));
    EXPECT_EQ(back, spec);
    // Emission is a fixed point: emit(parse(emit(s))) == emit(s).
    EXPECT_EQ(dsl::to_lmc_text(back), dsl::to_lmc_text(spec));
  }
}

TEST(DslRoundTrip, ReparsedSpecsExploreByteIdentically) {
  for (std::uint64_t seed : corpus_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    dsl::DslSpec spec = generate_spec(seed);
    dsl::DslSpec back = reparse(spec, "seed" + std::to_string(seed));
    Blob base = lmc_checkpoint(spec, 1);
    EXPECT_EQ(lmc_checkpoint(back, 1), base);
    EXPECT_EQ(lmc_checkpoint(spec, 8), base);
    EXPECT_EQ(lmc_checkpoint(back, 8), base);
  }
}

TEST(DslRoundTrip, ArtifactIsWrittenAndLoadable) {
  ShrinkResult shrunk;
  shrunk.spec = generate_symmetric_spec(664);
  shrunk.report.ok = false;
  shrunk.report.failure = OracleFailure::MissingNodeState;
  shrunk.report.detail = "node 1 state missing";
  shrunk.report.lmc_confirmed = 2;
  shrunk.report.gmc_violation_tuples = 2;
  shrunk.attempts = 3;
  shrunk.removed = 1;
  OracleOptions opt;
  opt.num_threads = 4;
  opt.lmc_time_budget_s = 20;
  opt.check_por = true;

  fs::path dir = fs::temp_directory_path() / "lmc_artifact_test" / "nested";
  fs::remove_all(dir.parent_path());
  const std::string path =
      write_repro_artifact(dir.string(), 664, shrunk, opt, GenLimits{}, /*symmetric=*/true);
  EXPECT_EQ(path, (dir / "dfuzz_repro_seed664.lmc").string());

  // The header names the failure and both commands.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::vector<std::string> header = {
      "# seed: 664\n",
      "# failure: missing-node-state\n",
      "# detail: node 1 state missing\n",
      "# shrink: removed 1 piece(s) in 3 oracle run(s)\n",
      "# regenerate (unshrunk): lmc_fuzz --seed 664 --runs 1 --symmetric-specs\n",
      "# replay: lmc_run " + path + " --oracle --no-scenarios --time-budget 20 --threads 4 --por\n",
  };
  for (const std::string& line : header)
    EXPECT_NE(text.find(line), std::string::npos) << line << "--- artifact ---\n" << text;

  // The body loads back to the shrunk spec, stamped with the observed
  // expectation.
  dsl::LoadResult r = dsl::load_file(path);
  ASSERT_TRUE(r.ok()) << r.diags.to_string();
  dsl::DslSpec expected = shrunk.spec;
  expected.expect_violation = true;
  EXPECT_EQ(*r.spec, expected);

  fs::remove_all(dir.parent_path());
}

// A checker that missed every violation the global search found must not
// write `expect violation;` from its own count of 0: the artifact's
// expectation is the reference verdict, which the replay meets once the
// checker is fixed.
TEST(DslRoundTrip, ArtifactExpectsTheReferenceVerdict) {
  ShrinkResult shrunk;
  shrunk.spec = generate_spec(14);
  shrunk.spec.expect_violation = false;
  shrunk.report.ok = false;
  shrunk.report.failure = OracleFailure::GmcViolationMissing;
  shrunk.report.lmc_confirmed = 0;
  shrunk.report.gmc_violation_tuples = 3;

  fs::path dir = fs::temp_directory_path() / "lmc_artifact_reference_test";
  fs::remove_all(dir);
  const std::string path = write_repro_artifact(dir.string(), 14, shrunk, OracleOptions{},
                                                GenLimits{}, /*symmetric=*/false);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("expect violation;"), std::string::npos) << text;
  dsl::LoadResult r = dsl::load_file(path);
  ASSERT_TRUE(r.ok()) << r.diags.to_string();
  EXPECT_TRUE(r.spec->expect_violation);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace lmc::dfuzz
