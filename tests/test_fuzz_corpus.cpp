// Fixed-seed regression corpus for the differential fuzzer: every seed in
// the corpus must produce a conclusive, agreeing oracle verdict. Seeds 1-50
// are the standing corpus; 97, 171 and 664 are pinned regressions — each
// one found a real divergence during development:
//  * 97  — phase-1 soundness verdicts were final while the store still
//          grew; a predecessor edge added later made the combination sound
//          but nothing re-verified it (fixed: non-sound phase-1 verdicts
//          defer to the phase-2 a-posteriori drain);
//  * 171 — backward internal gotos let one message rule fire twice along a
//          chain, regenerating identical message content, which the
//          duplicate-delivery limit of 0 then suppressed (fixed: generated
//          internal gotos are non-decreasing);
//  * 664 — one blob reachable via different delivery histories; first-path
//          history inheritance pruned the real path (fixed: the consumed-
//          message digest makes history a function of the blob).
#include <gtest/gtest.h>

#include <vector>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dsl/interp.hpp"
#include "mc/local_mc.hpp"

namespace lmc {
namespace {

std::vector<std::uint64_t> corpus_seeds() {
  std::vector<std::uint64_t> s;
  for (std::uint64_t i = 1; i <= 50; ++i) s.push_back(i);
  s.push_back(97);
  s.push_back(171);
  s.push_back(664);
  return s;
}

TEST(FuzzCorpus, AllSeedsConclusiveAndAgreeing) {
  dfuzz::DiffOracle oracle{dfuzz::OracleOptions{}};
  std::uint64_t with_violations = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t replayed = 0;
  std::uint64_t resumes = 0;
  std::uint64_t opt_runs = 0;
  for (std::uint64_t seed : corpus_seeds()) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.conclusive) << "seed " << seed << ": " << rep.detail;
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    if (rep.gmc_violation_tuples > 0) ++with_violations;
    confirmed += rep.lmc_confirmed;
    replayed += rep.witnesses_replayed;
    if (rep.resume_checked) ++resumes;
    if (rep.opt_checked) ++opt_runs;
  }
  // The corpus is only a meaningful oracle regression if it covers both
  // verdicts and every secondary check at least once.
  EXPECT_GT(with_violations, 0u);
  EXPECT_LT(with_violations, corpus_seeds().size());
  EXPECT_GT(confirmed, 0u);
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(resumes, 0u);
  EXPECT_GT(opt_runs, 0u);
}

/// Thread-count determinism over the ENTIRE frozen corpus: the same
// generated protocol explored with 1 and 8 threads — which covers the
// phase-1 handler chunks as well as the sweep and soundness fan-outs on
// the one worker pool — must leave the checker in a byte-identical state: stores, I+,
// violations, witnesses and counters, once wall-clock stats are zeroed.
TEST(FuzzCorpus, ThreadCountByteIdentical) {
  std::uint64_t total_confirmed = 0;
  for (std::uint64_t seed : corpus_seeds()) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    Blob base;
    std::size_t base_violations = 0;
    for (unsigned threads : {1u, 8u}) {
      LocalMcOptions opt;
      opt.stop_on_confirmed = false;
      opt.use_projection = false;
      opt.num_threads = threads;
      opt.time_budget_s = 120;
      LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
      mc.run_from_initial();
      ASSERT_TRUE(mc.stats().completed) << "seed " << seed << " threads " << threads;
      Blob norm = dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes());
      if (threads == 1) {
        base = std::move(norm);
        base_violations = mc.violations().size();
        total_confirmed += mc.stats().confirmed_violations;
      } else {
        EXPECT_EQ(base, norm) << "seed " << seed << ": checker state diverged at " << threads
                              << " threads";
        EXPECT_EQ(base_violations, mc.violations().size()) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(total_confirmed, 0u);  // the determinism seeds must exercise violations
}

// Same gate with the symmetry reduction requested (DESIGN.md §13): orbit
// bookkeeping lives on the applier and the checkpoint's symmetry section is
// part of the normalized bytes, so a reduced run must also be byte-identical
// at any thread count. kAuto activates only where infer_symmetric_roles
// finds replicated roles — on the other seeds this doubles as a no-op gate.
TEST(FuzzCorpus, ThreadCountByteIdenticalWithSymmetry) {
  std::uint64_t active_runs = 0;
  for (std::uint64_t seed : corpus_seeds()) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    Blob base;
    for (unsigned threads : {1u, 8u}) {
      LocalMcOptions opt;
      opt.stop_on_confirmed = false;
      opt.use_projection = false;
      opt.num_threads = threads;
      opt.time_budget_s = 120;
      opt.symmetry.mode = symmetry::SymmetryMode::kAuto;
      LocalModelChecker mc(p.cfg, p.invariant.get(), opt);
      mc.run_from_initial();
      ASSERT_TRUE(mc.stats().completed) << "seed " << seed << " threads " << threads;
      if (threads == 1 && mc.stats().sym.active != 0) ++active_runs;
      Blob norm = dfuzz::normalized_checkpoint_bytes(mc.checkpoint_bytes());
      if (threads == 1)
        base = std::move(norm);
      else
        EXPECT_EQ(base, norm) << "seed " << seed << ": reduced checker state diverged at "
                              << threads << " threads";
    }
  }
  EXPECT_GT(active_runs, 0u) << "no corpus seed activated the reduction; the gate is vacuous";
}

}  // namespace
}  // namespace lmc
