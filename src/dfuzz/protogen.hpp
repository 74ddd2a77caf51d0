// ProtoGen: seeded random generation of table-driven protocols over the
// existing HM/HA handler model, for differential checking of LMC against
// the global baseline.
//
// A generated protocol is an elaborated `dsl::DslSpec`, run by the same
// interpreter as every .lmc file (dsl::instantiate, dsl/interp.hpp):
//  * internal rules (HA) are fire-once — a per-node bitmask of consumed
//    rules is part of the serialized state, so each node contributes at
//    most `num_states * 2^|internals|` local states;
//  * message rules (HM) are guarded on the current state and must move to a
//    strictly HIGHER state number, so message-driven progress is monotone;
//  * every send's destination, type and payload tag are fixed in the table
//    at generation time — handlers stay fully deterministic.
// Together these bounds make the induced GLOBAL state space finite: the
// reference checker terminates on every generated protocol, which is what
// lets the differential oracle demand a completed baseline run.
//
// Names are synthesized: protocol `dfuzz_seed_<seed>`, states s0.., messages
// m0.., internal labels r<i> (i = the rule's draw order), one invariant
// `mutex`. A drawn message rule whose (node, type, guard) an earlier rule
// already owns is dropped: it could never fire, and the DSL rejects it as
// DSL04. Its RNG draws and payload tags are still consumed, so every kept
// rule is exactly what the seed drew.
//
// The generated invariant is a two-state mutual-exclusion property ("no two
// distinct nodes simultaneously in states A and B"), optionally projected
// so the same generated protocol exercises both the LMC-GEN and LMC-OPT
// system-state builders.
#pragma once

#include <cstdint>

#include "dsl/spec.hpp"

namespace lmc::dfuzz {

/// Generation bounds. Defaults keep a single protocol's reachable global
/// state space in the low thousands — a differential run is milliseconds.
struct GenLimits {
  std::uint32_t max_nodes = 4;          ///< >= 2
  std::uint32_t max_states = 4;         ///< >= 2
  std::uint32_t max_msg_types = 3;      ///< >= 1
  std::uint32_t max_internal_rules = 5;
  std::uint32_t max_msg_rules = 6;
  std::uint32_t max_sends = 2;          ///< per rule
  std::uint32_t assert_pct = 4;         ///< chance a rule injects a failed assert
  std::uint32_t projection_pct = 50;    ///< chance the invariant exposes a projection
};

/// Pure function of (seed, limits): the same seed regenerates the same
/// protocol on any platform/toolchain.
dsl::DslSpec generate_spec(std::uint64_t seed, const GenLimits& lim = {});

/// Symmetric-roles generator (separate from the FROZEN generate_spec — the
/// 53-seed corpus must keep regenerating byte-identically): a few driver
/// nodes plus one replicated class of >= 2 members with identical rule
/// tables. Driver broadcasts into the class share one payload tag per
/// surface send (class members then reach byte-identical states); member
/// replies to drivers carry per-member tags (the driver's digest keeps
/// senders apart — no history aliasing). Members never message each other.
/// The invariant never projects, so the checker's GEN path runs and
/// symmetry reduction can activate.
dsl::DslSpec generate_symmetric_spec(std::uint64_t seed, const GenLimits& lim = {});

}  // namespace lmc::dfuzz
