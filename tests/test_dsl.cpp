// .lmc DSL front end: parser/validator error paths pinned to exact
// file:line:col positions and [DSLnn] codes against the fixtures in
// tests/fixtures/dsl/, plus happy-path compilation, node-count override,
// canonical emission, and the loc-less validate() re-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dsl/interp.hpp"
#include "dsl/loader.hpp"
#include "dsl/spec.hpp"

namespace lmc::dsl {
namespace {

// Set by tests/CMakeLists.txt.
const std::string kFixtureDir = LMC_DSL_FIXTURE_DIR;

// --- error-path fixtures ----------------------------------------------------

struct ExpectedDiag {
  const char* file;
  std::uint32_t line;
  std::uint32_t col;
  const char* code;        // "" for parse errors
  const char* msg_needle;  // substring of the message
};

// One fixture per diagnostic class. Positions are load-bearing: a parser
// refactor that shifts where an error is reported must update these on
// purpose, not by accident.
const ExpectedDiag kFixtures[] = {
    {"bad_parse_missing_arrow.lmc", 6, 22, "", "expected '->'"},
    {"bad_dsl01_decreasing_msg.lmc", 10, 25, "DSL01", "strictly higher state"},
    {"bad_dsl02_decreasing_internal.lmc", 7, 28, "DSL02", "must not decrease"},
    {"bad_dsl03_too_many_internals.lmc", 7, 3, "DSL03", "33 internal rules"},
    {"bad_dsl04_duplicate_handler.lmc", 8, 3, "DSL04", "duplicate message handler"},
    {"bad_dsl05_duplicate_label.lmc", 7, 3, "DSL05", "duplicate internal handler label"},
    {"bad_dsl06_sender_in_timer.lmc", 7, 18, "DSL06", "has no sender"},
    {"bad_dsl07_duplicate_tag.lmc", 10, 5, "DSL07", "duplicates message content"},
    {"bad_dsl08_initial_violation.lmc", 7, 3, "DSL08", "all-initial system state"},
    {"bad_dsl09_next_off_range.lmc", 7, 18, "DSL09", "runs off the end"},
};

TEST(DslDiagnostics, FixturesPinPositionAndCode) {
  for (const ExpectedDiag& e : kFixtures) {
    SCOPED_TRACE(e.file);
    LoadResult r = load_file(kFixtureDir + "/" + e.file);
    EXPECT_FALSE(r.ok());
    ASSERT_FALSE(r.diags.items().empty());
    // Every fixture's FIRST diagnostic is the one under test (later ones,
    // e.g. per-node elaboration repeats, must be the same class).
    const Diag& d = r.diags.items().front();
    EXPECT_EQ(d.loc.line, e.line);
    EXPECT_EQ(d.loc.col, e.col);
    EXPECT_EQ(d.code, e.code);
    EXPECT_NE(d.msg.find(e.msg_needle), std::string::npos)
        << "message was: " << d.msg;
    for (const Diag& extra : r.diags.items()) EXPECT_EQ(extra.code, e.code);
  }
}

TEST(DslDiagnostics, ToStringIsGccStyle) {
  LoadResult r = load_file(kFixtureDir + "/bad_dsl05_duplicate_label.lmc");
  ASSERT_FALSE(r.diags.items().empty());
  std::string s = r.diags.items().front().to_string();
  // file:line:col: error: msg [CODE]
  EXPECT_NE(s.find("bad_dsl05_duplicate_label.lmc:7:3: error: "), std::string::npos) << s;
  EXPECT_EQ(s.substr(s.size() - 7), "[DSL05]") << s;
}

TEST(DslDiagnostics, MissingFileReportedAtLineZero) {
  LoadResult r = load_file(kFixtureDir + "/does_not_exist.lmc");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.diags.items().size(), 1u);
  EXPECT_EQ(r.diags.items()[0].loc.line, 0u);
}

TEST(DslDiagnostics, MultipleErrorsAllReported) {
  // Parser recovers enough for the validator to flag independent problems;
  // at minimum both DSL05 duplicates-with-different-guards land.
  const char* text =
      "protocol multi {\n"
      "  nodes 2;\n"
      "  states a, b, c, d;\n"
      "  messages Ping;\n"
      "  timer t at 0 @ a -> b;\n"
      "  timer t at 0 @ b -> c;\n"
      "  timer t at 0 @ c -> d;\n"
      "  invariant i: never b with c;\n"
      "}\n";
  LoadResult r = load_text(text, "multi.lmc");
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.diags.items().size(), 2u);
}

// --- happy path -------------------------------------------------------------

const char* kPing =
    "protocol ping {\n"
    "  nodes 3;\n"
    "  states idle, sent, done;\n"
    "  messages Ping, Pong;\n"
    "  timer kick at 0 @ idle -> sent {\n"
    "    send Ping to others;\n"
    "  }\n"
    "  on Ping at all @ idle -> sent {\n"
    "    send Pong to sender;\n"
    "  }\n"
    "  on Pong at 0 @ sent -> done;\n"
    "  invariant solo: never done with done;\n"
    "  scenario lossy {\n"
    "    seed 7;\n"
    "    drop 40;\n"
    "    sim_time 0.05;\n"
    "  }\n"
    "}\n";

TEST(DslCompile, ElaboratesPerNodeRules) {
  LoadResult r = load_text(kPing, "ping.lmc");
  ASSERT_TRUE(r.ok()) << r.diags.to_string();
  const DslSpec& s = *r.spec;
  EXPECT_EQ(s.name, "ping");
  EXPECT_EQ(s.num_nodes, 3u);
  ASSERT_EQ(s.states.size(), 3u);
  EXPECT_EQ(s.states[0], "idle");
  EXPECT_EQ(s.messages, (std::vector<std::string>{"Ping", "Pong"}));
  // timer at node 0 only; `on Ping at all` = 3 rules; `on Pong at 0` = 1.
  EXPECT_EQ(s.internals.size(), 1u);
  EXPECT_EQ(s.internals[0].node, 0u);
  EXPECT_EQ(s.internals[0].label, "kick");
  // `send Ping to others` from node 0 elaborates to nodes 1 and 2.
  EXPECT_EQ(s.internals[0].action.sends.size(), 2u);
  EXPECT_EQ(s.msg_rules.size(), 4u);
  auto pong_reply = std::count_if(s.msg_rules.begin(), s.msg_rules.end(),
                                  [](const SpecMsgRule& m) {
                                    return !m.action.sends.empty() &&
                                           m.action.sends[0].to_sender;
                                  });
  EXPECT_EQ(pong_reply, 3);
  ASSERT_EQ(s.invariants.size(), 1u);
  EXPECT_EQ(s.invariants[0].name, "solo");
  ASSERT_EQ(s.scenarios.size(), 1u);
  EXPECT_EQ(s.scenarios[0].seed, 7u);
  EXPECT_DOUBLE_EQ(s.scenarios[0].drop_pct, 40.0);
  EXPECT_DOUBLE_EQ(s.scenarios[0].sim_time, 0.05);
  // The elaborated spec passes the loc-less re-check too.
  EXPECT_EQ(validate(s), "");
}

TEST(DslCompile, OverrideNodesReelaborates) {
  CompileOptions opts;
  opts.override_nodes = 5;
  LoadResult r = load_text(kPing, "ping.lmc", opts);
  ASSERT_TRUE(r.ok()) << r.diags.to_string();
  EXPECT_EQ(r.spec->num_nodes, 5u);
  EXPECT_EQ(r.spec->msg_rules.size(), 6u);             // 5x Ping + 1x Pong
  EXPECT_EQ(r.spec->internals[0].action.sends.size(), 4u);  // others = 4 nodes
}

TEST(DslCompile, CanonicalTextReloadsToSameSpec) {
  LoadResult r = load_text(kPing, "ping.lmc");
  ASSERT_TRUE(r.ok());
  std::string canon = to_lmc_text(*r.spec);
  LoadResult r2 = load_text(canon, "ping_canonical.lmc");
  ASSERT_TRUE(r2.ok()) << r2.diags.to_string() << "\n--- emitted text ---\n" << canon;
  EXPECT_EQ(*r2.spec, *r.spec);
  // And emission is a fixed point: emit(parse(emit(s))) == emit(s).
  EXPECT_EQ(to_lmc_text(*r2.spec), canon);
}

TEST(DslValidate, RejectsProgrammaticEnvelopeBreaks) {
  LoadResult r = load_text(kPing, "ping.lmc");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(validate(*r.spec), "");
  auto broken = [&](auto mutate) {
    DslSpec s = *r.spec;
    mutate(s);
    EXPECT_THROW(instantiate(s), std::invalid_argument);
    return validate(s);
  };
  auto has = [](const std::string& err, const char* code) {
    return err.find(code) != std::string::npos;
  };
  EXPECT_NE(broken([](DslSpec& s) {
    s.msg_rules[0].action.goto_state = s.msg_rules[0].guard_state;  // not monotone
  }), "");
  // The compiler's uniqueness rules hold for specs built in code too. Each
  // duplicate drops its sends so only the rule under test can fire.
  EXPECT_TRUE(has(broken([](DslSpec& s) {
    SpecMsgRule dup = s.msg_rules[0];  // same node, message and guard
    dup.action.sends.clear();
    dup.action.goto_state = 2;
    s.msg_rules.push_back(dup);
  }), "DSL04"));
  EXPECT_TRUE(has(broken([](DslSpec& s) {
    SpecInternalRule dup = s.internals[0];  // label 'kick' again on node 0
    dup.action.sends.clear();
    s.internals.push_back(dup);
  }), "DSL05"));
  EXPECT_TRUE(has(broken([](DslSpec& s) {
    std::vector<SpecSend>& sends = s.internals[0].action.sends;
    sends.push_back(sends[0]);  // same source, destination, message and tag
  }), "DSL07"));
  EXPECT_TRUE(has(broken([](DslSpec& s) {
    // Two 'sender' replies from one node with one tag, in different rules.
    SpecMsgRule pong = s.msg_rules[0];
    pong.type = 1;
    s.msg_rules.push_back(pong);
  }), "DSL07"));
}

TEST(DslInterp, StateDecodeAndInitialStates) {
  LoadResult r = load_text(kPing, "ping.lmc");
  ASSERT_TRUE(r.ok());
  CompiledProtocol p = instantiate(*r.spec);
  EXPECT_EQ(p.cfg.num_nodes, 3u);
  std::vector<Blob> init = initial_states(p.cfg);
  ASSERT_EQ(init.size(), 3u);
  for (const Blob& b : init) EXPECT_EQ(dsl_state_of(b), 0u);
}

}  // namespace
}  // namespace lmc::dsl
