// Unit tests for the differential-fuzzing subsystem itself: the generators'
// determinism, envelope guarantees and frozen output, the semantics of the
// interpreter node generated specs run on (dsl::DslNode), the shrinker, and
// a hand-written regression for the checker bug the fuzzer found (premature
// mid-run unsoundness verdicts).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dfuzz/shrink.hpp"
#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "runtime/hash.hpp"
#include "runtime/state_machine.hpp"

namespace lmc {
namespace {

/// A hand-written spec in .lmc text (the tests' way to build one).
dsl::DslSpec spec_of(const char* text) {
  dsl::LoadResult r = dsl::load_text(text, "hand.lmc");
  EXPECT_TRUE(r.ok()) << r.diags.to_string();
  return r.ok() ? *r.spec : dsl::DslSpec{};
}

std::vector<std::uint64_t> corpus_seeds() {
  std::vector<std::uint64_t> s;
  for (std::uint64_t i = 1; i <= 50; ++i) s.push_back(i);
  s.push_back(97);
  s.push_back(171);
  s.push_back(664);
  return s;
}

// --- generator -------------------------------------------------------------

TEST(ProtoGen, SameSeedSameSpecSameBytes) {
  for (std::uint64_t seed : {1ull, 2ull, 42ull, 97ull, 664ull}) {
    dsl::DslSpec a = dfuzz::generate_spec(seed);
    dsl::DslSpec b = dfuzz::generate_spec(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(dsl::to_lmc_text(a), dsl::to_lmc_text(b)) << "seed " << seed;
  }
  // And different seeds actually vary.
  EXPECT_NE(dfuzz::generate_spec(1), dfuzz::generate_spec(2));
}

// The generators are frozen: the corpus, CI sweeps and repro artifacts name
// protocols by seed. The canonical text of both generators' output is
// pinned, so any drift in an RNG draw, a name, a tag or a dropped shadowed
// rule fails here rather than silently re-seeding every corpus.
TEST(ProtoGen, GeneratedTextIsPinned) {
  std::string plain, symmetric;
  for (std::uint64_t seed : corpus_seeds()) plain += dsl::to_lmc_text(dfuzz::generate_spec(seed));
  for (std::uint64_t seed = 1; seed <= 30; ++seed)
    symmetric += dsl::to_lmc_text(dfuzz::generate_symmetric_spec(seed));
  auto digest = [](const std::string& t) {
    return hash_bytes(reinterpret_cast<const std::uint8_t*>(t.data()), t.size());
  };
  EXPECT_EQ(plain.size(), 27170u);
  EXPECT_EQ(digest(plain), 0x05255e51378d3d10ull);
  EXPECT_EQ(symmetric.size(), 16678u);
  EXPECT_EQ(digest(symmetric), 0x4a2fc30307f2761dull);
}

TEST(ProtoGen, EverySeedValidAndEnvelopeRespected) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    dsl::DslSpec s = dfuzz::generate_spec(seed);
    EXPECT_EQ(dsl::validate(s), "") << "seed " << seed;
    // The completeness envelope: internal gotos never move backward, so no
    // rule can re-fire along a chain and regenerate message content
    // (regression for the seed-171 divergence class).
    for (const dsl::SpecInternalRule& r : s.internals)
      EXPECT_GE(r.action.goto_state, r.guard_state) << "seed " << seed;
    // The first internal rule is enabled in the initial system state.
    ASSERT_FALSE(s.internals.empty()) << "seed " << seed;
    EXPECT_EQ(s.internals[0].guard_state, 0u) << "seed " << seed;
  }
}

TEST(ProtoGen, ValidateRejectsMalformedSpecs) {
  dsl::DslSpec base = dfuzz::generate_spec(5);
  ASSERT_EQ(dsl::validate(base), "");

  auto broken = [&](auto mutate) {
    dsl::DslSpec s = base;
    mutate(s);
    return dsl::validate(s);
  };
  EXPECT_NE(broken([](auto& s) { s.num_nodes = 1; }), "");
  EXPECT_NE(broken([](auto& s) { s.states.resize(1); }), "");
  EXPECT_NE(broken([](auto& s) {
    s.invariants[0].a = {0};  // the all-initial system state violates it
    s.invariants[0].b = {0};
  }), "");
  EXPECT_NE(broken([](auto& s) {
    s.invariants[0].b = {static_cast<std::uint32_t>(s.states.size())};
  }), "");
  EXPECT_NE(broken([](auto& s) {
    s.internals[0].action.goto_state = static_cast<std::uint32_t>(s.states.size());
  }), "");
  EXPECT_NE(broken([](auto& s) {
    dsl::SpecMsgRule r;
    r.node = 0;
    r.type = 0;
    r.guard_state = 1;
    r.action.goto_state = 1;  // not strictly monotone
    s.msg_rules.push_back(r);
  }), "");
  EXPECT_NE(broken([](auto& s) {
    s.internals.resize(33, s.internals[0]);  // fired bitmask is 32 bits
  }), "");
  EXPECT_THROW(dsl::instantiate([&] {
    dsl::DslSpec s = base;
    s.num_nodes = 0;
    return s;
  }()), std::invalid_argument);
}

// --- interpreter node ------------------------------------------------------

/// 2 nodes, 3 states: node0 has one fire-once internal (stay at s0, send
/// m0 tag 5 to node1); node1 moves s0->s1 and s1->s2 on m0.
const char* kHandSpec =
    "protocol hand {\n"
    "  nodes 2;\n"
    "  states s0, s1, s2;\n"
    "  messages m0, m1;\n"
    "  internal r0 at 0 @ s0 -> s0 { send m0 to node 1 tag 5; }\n"
    "  on m0 at 1 @ s0 -> s1;\n"
    "  on m0 at 1 @ s1 -> s2;\n"
    "  invariant mutex: never s1 with s1;\n"
    "}\n";

Message tagged(NodeId dst, std::uint32_t type, std::uint32_t tag) {
  Writer w;
  w.u32(tag);
  return Message{dst, 0, type, std::move(w).take()};
}

TEST(GenNode, FireOnceInternalAndSends) {
  dsl::CompiledProtocol p = dsl::instantiate(spec_of(kHandSpec));
  std::vector<Blob> init = initial_states(p.cfg);
  EXPECT_EQ(dsl::dsl_state_of(init[0]), 0u);
  EXPECT_EQ(dsl::dsl_state_of(init[1]), 0u);

  auto evs = internal_events_of(p.cfg, 0, init[0]);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_TRUE(internal_events_of(p.cfg, 1, init[1]).empty());

  ExecResult r = exec_internal(p.cfg, 0, init[0], evs[0]);
  ASSERT_FALSE(r.assert_failed);
  EXPECT_EQ(dsl::dsl_state_of(r.state), 0u);  // the rule stays at s0...
  EXPECT_NE(r.state, init[0]);                // ...but the fired bit changed the blob
  ASSERT_EQ(r.sent.size(), 1u);
  EXPECT_EQ(r.sent[0].dst, 1u);
  EXPECT_EQ(r.sent[0].type, 0u);
  // Fire-once: the rule is gone even though the guard still matches.
  EXPECT_TRUE(internal_events_of(p.cfg, 0, r.state).empty());
}

TEST(GenNode, UnmatchedDeliveryIsSilentNoOp) {
  dsl::CompiledProtocol p = dsl::instantiate(spec_of(kHandSpec));
  std::vector<Blob> init = initial_states(p.cfg);
  ExecResult r = exec_message(p.cfg, 1, init[1], tagged(1, 1, 9));  // no m1 rule
  EXPECT_FALSE(r.assert_failed);
  EXPECT_EQ(r.state, init[1]);  // byte-identical: digest untouched on a drop
  EXPECT_TRUE(r.sent.empty());
}

TEST(GenNode, DigestSeparatesConsumedSetsButMergesReorderings) {
  dsl::CompiledProtocol p = dsl::instantiate(spec_of(kHandSpec));
  std::vector<Blob> init = initial_states(p.cfg);

  // Same rule, same successor state number — different consumed message.
  Blob via5 = exec_message(p.cfg, 1, init[1], tagged(1, 0, 5)).state;
  Blob via6 = exec_message(p.cfg, 1, init[1], tagged(1, 0, 6)).state;
  EXPECT_EQ(dsl::dsl_state_of(via5), dsl::dsl_state_of(via6));
  EXPECT_NE(via5, via6);  // histories differ, so the blobs must not merge

  // Consuming {5,6} in either order lands on the SAME blob: the digest is
  // order-insensitive, so LMC's predecessor merging still gets exercised.
  Blob ab = exec_message(p.cfg, 1, via5, tagged(1, 0, 6)).state;
  Blob ba = exec_message(p.cfg, 1, via6, tagged(1, 0, 5)).state;
  EXPECT_EQ(dsl::dsl_state_of(ab), 2u);
  EXPECT_EQ(ab, ba);
}

// --- shrinker --------------------------------------------------------------

// Crippling the soundness verifier (joint-search expansion cap 0) turns
// every confirmation into a truncated Unsound verdict, so any violation-
// bearing protocol makes the oracle report gmc-violation-missing-from-lmc.
// The shrinker must reduce the protocol while preserving exactly that
// failure class, and its artifact must stay a valid, reproducing spec.
TEST(Shrink, MinimizesWhilePreservingFailureClass) {
  dfuzz::OracleOptions opt;
  opt.check_resume = false;  // irrelevant to the failure; keeps shrinking fast
  opt.check_opt = false;
  opt.soundness.max_schedules = 0;
  opt.soundness.quick_expansions = 0;

  dsl::DslSpec spec = dfuzz::generate_spec(14);  // violation-bearing seed
  dsl::CompiledProtocol p = dsl::instantiate(spec);
  dfuzz::OracleReport rep = dfuzz::DiffOracle(opt).check(p.cfg, p.invariant.get());
  ASSERT_TRUE(rep.conclusive) << rep.detail;
  ASSERT_FALSE(rep.ok);
  ASSERT_EQ(rep.failure, dfuzz::OracleFailure::GmcViolationMissing) << rep.detail;

  dfuzz::ShrinkResult res = dfuzz::shrink_spec(spec, rep.failure, opt);
  EXPECT_GT(res.attempts, 0u);
  EXPECT_EQ(dsl::validate(res.spec), "");
  EXPECT_FALSE(res.report.ok);
  EXPECT_TRUE(res.report.conclusive);
  EXPECT_EQ(res.report.failure, dfuzz::OracleFailure::GmcViolationMissing);
  const std::size_t before = spec.internals.size() + spec.msg_rules.size();
  const std::size_t after = res.spec.internals.size() + res.spec.msg_rules.size();
  EXPECT_LE(after, before);
  EXPECT_GT(res.removed, 0u);  // seed 14 carries rules irrelevant to the bug
}

// Regression: node removal must reach MIDDLE nodes. The divergence here is
// carried by nodes 0 and 3 (each can reach s1, so the invariant's two-node
// coincidence is realizable); nodes 1 and 2 are pure bystanders chattering
// at each other. The old shrinker only ever peeled the HIGHEST node and
// stopped at the first failure — node 3 being load-bearing left the
// bystanders in the artifact forever. The rewritten pass tries every node
// and renumbers, so the artifact must land at exactly the two culprits.
TEST(Shrink, RemovesMiddleBystanderNodes) {
  const dsl::DslSpec spec = spec_of(
      "protocol bystanders {\n"
      "  nodes 4;\n"
      "  states s0, s1;\n"
      "  messages m0;\n"
      "  internal r0 at 0 @ s0 -> s1;\n"
      "  internal r1 at 3 @ s0 -> s1;\n"
      "  internal r2 at 1 @ s0 -> s0 { send m0 to node 2 tag 11; }\n"
      "  internal r3 at 2 @ s0 -> s0 { send m0 to node 1 tag 12; }\n"
      "  invariant mutex: never s1 with s1;\n"
      "}\n");
  ASSERT_EQ(dsl::validate(spec), "");

  dfuzz::OracleOptions opt;
  opt.check_resume = false;
  opt.check_opt = false;
  opt.soundness.max_schedules = 0;  // cripple soundness: see test above
  opt.soundness.quick_expansions = 0;

  dsl::CompiledProtocol p = dsl::instantiate(spec);
  dfuzz::OracleReport rep = dfuzz::DiffOracle(opt).check(p.cfg, p.invariant.get());
  ASSERT_TRUE(rep.conclusive) << rep.detail;
  ASSERT_EQ(rep.failure, dfuzz::OracleFailure::GmcViolationMissing) << rep.detail;

  dfuzz::ShrinkResult res = dfuzz::shrink_spec(spec, rep.failure, opt);
  EXPECT_EQ(res.spec.num_nodes, 2u) << "bystander nodes 1 and 2 survived shrinking";
  EXPECT_EQ(res.spec.internals.size(), 2u);
  EXPECT_EQ(dsl::validate(res.spec), "");
  EXPECT_TRUE(res.report.conclusive);
  EXPECT_EQ(res.report.failure, dfuzz::OracleFailure::GmcViolationMissing);
}

// --- regression: premature mid-run unsoundness verdicts --------------------

// Digest-less interpreter reproducing the seed-97 divergence shape: node 1
// has two fire-once internals at s0 — A stays and sends msg "1" to node 0,
// B advances to s1 and sends msg "2" — and node 0 moves s0->s1 on ANY
// message, so both deliveries produce the IDENTICAL node-0 blob. The sweep
// for node0@s1 runs right after the first delivery, when the only recorded
// predecessor is A's message: the combination {node0@s1, node1@s1-via-B-
// only} is infeasible AT THAT MOMENT (B never sent "1"), and only becomes
// sound when the second delivery adds B's predecessor edge. A checker that
// finalizes mid-run unsoundness verdicts misses the violation; the fix
// defers every non-sound phase-1 verdict to the a-posteriori drain.
class MergeNode final : public StateMachine {
 public:
  explicit MergeNode(NodeId self) : self_(self) {}

  void handle_message(const Message&, Context&) override {
    if (self_ == 0 && state_ == 0) state_ = 1;  // any message; payload ignored
  }
  std::vector<InternalEvent> enabled_internal_events() const override {
    std::vector<InternalEvent> evs;
    if (self_ == 1 && state_ == 0) {
      if (!(fired_ & 1)) evs.push_back({1, {}});  // A
      if (!(fired_ & 2)) evs.push_back({2, {}});  // B
    }
    return evs;
  }
  void handle_internal(const InternalEvent& ev, Context& ctx) override {
    Writer w;
    w.u32(ev.kind);
    ctx.send(0, 0, std::move(w).take());
    fired_ |= ev.kind == 1 ? 1u : 2u;
    if (ev.kind == 2) state_ = 1;
  }
  void serialize(Writer& w) const override {
    w.u32(state_);
    w.u32(fired_);
  }
  void deserialize(Reader& r) override {
    state_ = r.u32();
    fired_ = r.u32();
  }

 private:
  NodeId self_;
  std::uint32_t state_ = 0;
  std::uint32_t fired_ = 0;
};

class AtMostOneInS1 final : public Invariant {
 public:
  std::string name() const override { return "at_most_one_in_s1"; }
  bool holds(const SystemConfig&, const SystemStateView& sys) const override {
    std::size_t in_s1 = 0;
    for (const Blob* b : sys)
      if (Reader(*b).u32() == 1) ++in_s1;  // state is the leading u32
    return in_s1 <= 1;
  }
};

TEST(DeferralRegression, LatePredecessorEdgeStillConfirms) {
  SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.factory = [](NodeId self, std::uint32_t) { return std::make_unique<MergeNode>(self); };
  AtMostOneInS1 inv;
  dfuzz::OracleReport rep = dfuzz::DiffOracle(dfuzz::OracleOptions{}).check(cfg, &inv);
  ASSERT_TRUE(rep.conclusive) << rep.detail;
  EXPECT_TRUE(rep.ok) << "[" << dfuzz::to_string(rep.failure) << "] " << rep.detail;
  EXPECT_GT(rep.gmc_violation_tuples, 0u);
  EXPECT_GT(rep.lmc_confirmed, 0u);
  EXPECT_GT(rep.witnesses_replayed, 0u);
}

}  // namespace
}  // namespace lmc
