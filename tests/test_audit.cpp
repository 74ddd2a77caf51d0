// ModelValidityAuditor (runtime/audit.hpp): deliberately invalid machines
// must be caught, valid protocols must audit clean, and the failure must
// surface as ModelValidityError from the checker and as
// OracleFailure::ModelInvalid from the DiffOracle.
#include <gtest/gtest.h>

#include <memory>

#include "dfuzz/oracle.hpp"
#include "dfuzz/protogen.hpp"
#include "dsl/interp.hpp"
#include "mc/local_mc.hpp"
#include "protocols/election.hpp"
#include "protocols/onepaxos.hpp"
#include "protocols/paxos.hpp"
#include "protocols/randtree.hpp"
#include "protocols/tree.hpp"
#include "protocols/twophase.hpp"
#include "runtime/audit.hpp"

namespace lmc {
namespace {

constexpr std::uint32_t kMsgPing = 7;
constexpr std::uint32_t kEvKick = 1;

/// Minimal valid 2-node machine: node 0's kick event sends one ping to
/// node 1, which counts deliveries. Subclasses break one validity
/// assumption each.
class BaseMachine : public StateMachine {
 public:
  explicit BaseMachine(NodeId self) : self_(self) {}

  void handle_message(const Message&, Context&) override { ++count_; }
  std::vector<InternalEvent> enabled_internal_events() const override {
    if (self_ == 0 && !fired_) return {{kEvKick, {}}};
    return {};
  }
  void handle_internal(const InternalEvent&, Context& ctx) override {
    fired_ = true;
    ctx.send(1, kMsgPing, {});
  }
  void serialize(Writer& w) const override {
    w.b(fired_);
    w.u32(count_);
  }
  void deserialize(Reader& r) override {
    fired_ = r.b();
    count_ = r.u32();
  }

 protected:
  NodeId self_;
  bool fired_ = false;
  std::uint32_t count_ = 0;
};

template <class M>
SystemConfig two_node_config() {
  SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.factory = [](NodeId self, std::uint32_t) { return std::make_unique<M>(self); };
  return cfg;
}

/// The delivery produced by BaseMachine's kick, addressed to node 1.
Message ping() {
  Message m;
  m.dst = 1;
  m.src = 0;
  m.type = kMsgPing;
  return m;
}

// --- invalid machines -------------------------------------------------------

std::uint32_t g_entropy = 0;  // the "rand()" stand-in a handler must not read

/// Successor state depends on process-local entropy: the audit's
/// re-execution sees a different value.
class NondetStateMachine : public BaseMachine {
 public:
  using BaseMachine::BaseMachine;
  void handle_message(const Message&, Context&) override { count_ += ++g_entropy; }
};

/// Emission target depends on process-local entropy: state is stable but
/// the sent sequence differs on re-execution.
class NondetSendMachine : public BaseMachine {
 public:
  using BaseMachine::BaseMachine;
  void handle_message(const Message&, Context& ctx) override {
    ctx.send(++g_entropy % 2, kMsgPing, {});
  }
};

/// A non-serialized field gates enabled events: the live post-handler
/// machine and its rehydrated image behave differently.
class HiddenFieldMachine : public BaseMachine {
 public:
  using BaseMachine::BaseMachine;
  void handle_message(const Message&, Context&) override {
    ++count_;
    armed_ = true;
  }
  std::vector<InternalEvent> enabled_internal_events() const override {
    auto evs = BaseMachine::enabled_internal_events();
    if (armed_) evs.push_back({kEvKick + 1, {}});
    return evs;
  }

 private:
  bool armed_ = false;  // deliberately missing from serialize()
};

/// serialize() writes shadow_, deserialize() reads-and-discards it (byte
/// counts match, so exec itself succeeds) — the round-trip loses the value.
class AsymmetricMachine : public BaseMachine {
 public:
  using BaseMachine::BaseMachine;
  void handle_message(const Message&, Context&) override {
    ++count_;
    ++shadow_;
  }
  void serialize(Writer& w) const override {
    BaseMachine::serialize(w);
    w.u32(shadow_);
  }
  void deserialize(Reader& r) override {
    BaseMachine::deserialize(r);
    (void)r.u32();  // deliberately forgets shadow_
  }

 private:
  std::uint32_t shadow_ = 0;
};

// --- unit level: audit_message on a single observed execution ---------------

TEST(Audit, ValidMachinePassesAllChecks) {
  SystemConfig cfg = two_node_config<BaseMachine>();
  auto nodes = initial_states(cfg);
  ExecResult r = exec_message(cfg, 1, nodes[1], ping());
  AuditReport rep = audit_message(cfg, 1, nodes[1], ping(), r);
  EXPECT_TRUE(rep.ok) << rep.detail;

  ExecResult ri = exec_internal(cfg, 0, nodes[0], {kEvKick, {}});
  AuditReport repi = audit_internal(cfg, 0, nodes[0], {kEvKick, {}}, ri);
  EXPECT_TRUE(repi.ok) << repi.detail;
}

TEST(Audit, NondeterministicStateCaught) {
  SystemConfig cfg = two_node_config<NondetStateMachine>();
  auto nodes = initial_states(cfg);
  ExecResult r = exec_message(cfg, 1, nodes[1], ping());
  AuditReport rep = audit_message(cfg, 1, nodes[1], ping(), r);
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("different successor"), std::string::npos) << rep.detail;
}

TEST(Audit, NondeterministicEmissionCaught) {
  SystemConfig cfg = two_node_config<NondetSendMachine>();
  auto nodes = initial_states(cfg);
  ExecResult r = exec_message(cfg, 1, nodes[1], ping());
  AuditReport rep = audit_message(cfg, 1, nodes[1], ping(), r);
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("message sequence"), std::string::npos) << rep.detail;
}

TEST(Audit, HiddenFieldCaught) {
  SystemConfig cfg = two_node_config<HiddenFieldMachine>();
  auto nodes = initial_states(cfg);
  ExecResult r = exec_message(cfg, 1, nodes[1], ping());
  AuditReport rep = audit_message(cfg, 1, nodes[1], ping(), r);
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("different internal events"), std::string::npos) << rep.detail;
}

TEST(Audit, SerializeAsymmetryCaught) {
  SystemConfig cfg = two_node_config<AsymmetricMachine>();
  auto nodes = initial_states(cfg);
  ExecResult r = exec_message(cfg, 1, nodes[1], ping());
  AuditReport rep = audit_message(cfg, 1, nodes[1], ping(), r);
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.detail.find("not inverses"), std::string::npos) << rep.detail;
}

// --- checker level: LocalModelChecker under audit_validity ------------------

TEST(Audit, CheckerThrowsModelValidityError) {
  SystemConfig cfg = two_node_config<HiddenFieldMachine>();
  LocalMcOptions opt;
  opt.audit_validity = true;
  LocalModelChecker mc(cfg, nullptr, opt);
  EXPECT_THROW(mc.run_from_initial(), ModelValidityError);
}

TEST(Audit, CheckerThrowsOnNondeterminism) {
  SystemConfig cfg = two_node_config<NondetStateMachine>();
  LocalMcOptions opt;
  opt.audit_validity = true;
  opt.max_transitions = 10000;  // nondeterminism could otherwise explode LS_n
  LocalModelChecker mc(cfg, nullptr, opt);
  EXPECT_THROW(mc.run_from_initial(), ModelValidityError);
}

TEST(Audit, CheckerCleanOnValidMachineAndCountsAudits) {
  SystemConfig cfg = two_node_config<BaseMachine>();
  LocalMcOptions opt;
  opt.audit_validity = true;
  LocalModelChecker mc(cfg, nullptr, opt);
  EXPECT_NO_THROW(mc.run_from_initial());
  EXPECT_GT(mc.audits_performed(), 0u);
}

TEST(Audit, AuditsAlsoRunOnParallelWorkers) {
  SystemConfig cfg = two_node_config<HiddenFieldMachine>();
  LocalMcOptions opt;
  opt.audit_validity = true;
  opt.num_threads = 4;  // the pool must propagate the worker's throw
  LocalModelChecker mc(cfg, nullptr, opt);
  EXPECT_THROW(mc.run_from_initial(), ModelValidityError);
}

// --- oracle level: audit failure as a per-seed verdict ----------------------

TEST(Audit, OracleReportsModelInvalid) {
  SystemConfig cfg = two_node_config<HiddenFieldMachine>();
  dfuzz::OracleOptions opt;
  opt.audit_validity = true;
  dfuzz::OracleReport rep = dfuzz::DiffOracle{opt}.check(cfg, nullptr);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.failure, dfuzz::OracleFailure::ModelInvalid);
  EXPECT_EQ(std::string("model-invalid"), dfuzz::to_string(rep.failure));
}

// --- corpus: the example protocols audit clean ------------------------------

TEST(AuditCorpus, ExampleProtocolsAuditClean) {
  struct Named {
    const char* name;
    SystemConfig cfg;
  };
  tree::Topology topo = tree::fig2_topology();
  std::vector<Named> protocols;
  protocols.push_back({"tree", tree::make_config(topo)});
  protocols.push_back({"randtree", randtree::make_config(4, randtree::Options{})});
  protocols.push_back({"paxos", paxos::make_config(3, paxos::CoreOptions{},
                                                   paxos::DriverConfig{{0}, 1})});
  protocols.push_back({"onepaxos", onepaxos::make_config(3, onepaxos::Options{})});
  protocols.push_back({"twophase", twophase::make_config(3, twophase::Options{})});
  protocols.push_back({"election", election::make_config(3, election::Options{{0, 1}, false})});
  for (Named& p : protocols) {
    LocalMcOptions opt;
    opt.audit_validity = true;
    // The audit verdict does not need a completed exploration; bound the
    // run so the suite stays fast on the bigger protocols.
    opt.max_transitions = 20000;
    LocalModelChecker mc(p.cfg, nullptr, opt);
    EXPECT_NO_THROW(mc.run_from_initial()) << p.name;
    EXPECT_GT(mc.audits_performed(), 0u) << p.name;
  }
}

TEST(AuditCorpus, FrozenFuzzCorpusAuditsClean) {
  dfuzz::OracleOptions opt;
  opt.audit_validity = true;
  dfuzz::DiffOracle oracle{opt};
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 1; i <= 50; ++i) seeds.push_back(i);
  seeds.push_back(97);
  seeds.push_back(171);
  seeds.push_back(664);
  std::uint64_t audited = 0;
  for (std::uint64_t seed : seeds) {
    dsl::CompiledProtocol p = dsl::instantiate(dfuzz::generate_spec(seed));
    dfuzz::OracleReport rep = oracle.check(p.cfg, p.invariant.get());
    ASSERT_TRUE(rep.ok) << "seed " << seed << ": [" << dfuzz::to_string(rep.failure) << "] "
                        << rep.detail;
    audited += rep.handler_audits;
  }
  EXPECT_GT(audited, 0u);
}

}  // namespace
}  // namespace lmc
