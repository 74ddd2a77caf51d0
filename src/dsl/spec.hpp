// Elaborated form of a .lmc protocol: every handler expanded to concrete
// per-node rules for a fixed node count, names resolved to dense indices,
// payload tags assigned. This is the layer the interpreter (interp.hpp)
// executes, and the form dfuzz's generators (dfuzz/protogen.hpp) emit.
//
// The shape is a rule table — fire-once internal rules, strictly-monotone
// message rules, fixed sends — because those are exactly the structural
// properties that keep a protocol inside the local model's documented
// completeness envelope. `SpecSend::to_sender` is a reply destination
// resolved from the delivered message at execution time (still
// deterministic — the sender is part of the event, not hidden state).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/types.hpp"

namespace lmc::dsl {

/// One elaborated message emission. Destination is either fixed (`dst`) or
/// the delivering message's source (`to_sender`, message handlers only).
struct SpecSend {
  bool to_sender = false;
  NodeId dst = 0;
  std::uint32_t type = 0;
  std::uint32_t tag = 0;  ///< payload discriminator (explicit or auto-assigned)
  bool operator==(const SpecSend&) const = default;
};

struct SpecAction {
  std::uint32_t goto_state = 0;
  std::vector<SpecSend> sends;
  bool fail_assert = false;
  std::string assert_msg;
  bool operator==(const SpecAction&) const = default;
};

/// Fire-once internal/timer rule (HA). `label` survives elaboration for
/// diagnostics and canonical text emission.
struct SpecInternalRule {
  NodeId node = 0;
  std::uint32_t guard_state = 0;
  SpecAction action;
  std::string label;
  bool operator==(const SpecInternalRule&) const = default;
};

/// Guarded message rule (HM); goto is strictly above the guard.
struct SpecMsgRule {
  NodeId node = 0;
  std::uint32_t type = 0;
  std::uint32_t guard_state = 0;
  SpecAction action;
  bool operator==(const SpecMsgRule&) const = default;
};

/// `never A with B`: no two distinct nodes simultaneously in A x B.
/// `never A before B`: no pair i < j with node i in A and node j in B
/// (chain-style ordering properties). State sets are sorted and deduped.
struct SpecInvariant {
  std::string name;
  bool before = false;
  bool projected = false;  ///< expose a pairwise projection (LMC-OPT path)
  std::vector<std::uint32_t> a, b;
  bool operator==(const SpecInvariant&) const = default;
};

/// A seeded lossy-transport/timer prelude: run the protocol live under
/// SimTransport for `sim_time`, snapshot, and model-check from there.
struct Scenario {
  std::string name;
  std::uint32_t num_nodes = 0;  ///< may differ from the protocol default
  std::uint64_t seed = 1;
  double drop_pct = 30.0;
  double sim_time = 30.0;
  double app_max = 10.0;
  bool fifo = false;
  bool operator==(const Scenario&) const = default;
};

struct DslSpec {
  std::string name;
  std::uint64_t seed = 0;  ///< provenance metadata (dfuzz repro seed)
  bool expect_violation = false;
  std::uint32_t num_nodes = 0;
  std::vector<std::string> states;    ///< index == numeric state; [0] is initial
  std::vector<std::string> messages;  ///< index == message type
  std::vector<SpecInternalRule> internals;
  std::vector<SpecMsgRule> msg_rules;
  std::vector<SpecInvariant> invariants;
  std::vector<Scenario> scenarios;

  bool operator==(const DslSpec&) const = default;
};

/// Loc-less structural re-check of an elaborated spec: every condition the
/// compiler reports with a position (DSL01-DSL09), checked again for specs
/// built in code — the fuzz generators and the shrinker reach the
/// interpreter through this alone. Empty == valid.
std::string validate(const DslSpec& spec);

/// Canonical fully-elaborated .lmc text: one rule per line with explicit
/// `at <node>` selectors and explicit `tag` values. Parsing and compiling
/// this text reproduces the spec exactly (the round-trip tests pin this),
/// which is what makes dfuzz repro artifacts readable *and* executable.
std::string to_lmc_text(const DslSpec& spec);

}  // namespace lmc::dsl
