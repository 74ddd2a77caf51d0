// Role permutation groups for symmetry reduction (DESIGN.md §13).
//
// A *class* is a set of node ids whose behaviours are interchangeable:
// permuting the ids of class members maps reachable system states onto
// reachable system states. The checker only ever uses classes to decide
// which combinations to *enumerate* — every violating orbit is re-verified
// on concrete member assignments by the ordinary soundness machinery — so
// a wrong class hint can cost reduction effectiveness but never soundness.
//
// Classes come from three places:
//  * `SymmetryMode::kExplicit`: caller-supplied `SymmetryOptions::classes`
//    (hand-written protocols, e.g. Paxos acceptors);
//  * `SymmetryMode::kAuto`: `SystemConfig::symmetric_roles`, filled by the
//    DSL / ProtoGen adapters via `infer_classes` below;
//  * inference itself: two nodes are merged when swapping their ids is an
//    automorphism of the per-node rule tables (`NodeSig`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/hash.hpp"
#include "runtime/types.hpp"

namespace lmc::symmetry {

enum class SymmetryMode : std::uint8_t {
  kOff = 0,       ///< no reduction (default; preserves every byte-identity gate)
  kAuto = 1,      ///< use SystemConfig::symmetric_roles
  kExplicit = 2,  ///< use SymmetryOptions::classes
};

struct SymmetryOptions {
  SymmetryMode mode = SymmetryMode::kOff;
  /// kExplicit only: requested classes. Validated and normalized at
  /// activation; overlapping or out-of-range hints are rejected.
  std::vector<std::vector<NodeId>> classes;
};

// ---------------------------------------------------------------------------
// Rule-table signatures for automatic class inference.
// ---------------------------------------------------------------------------

/// One send of a rule, with everything identity-relevant except the payload
/// tag. Tags are deliberately excluded: distinct auto-assigned tags on
/// otherwise-mirrored sends would block inference, and excluding them is
/// safe because the reduction is unconditionally sound (wrong classes only
/// waste enumeration effort on orbits whose members never coincide).
struct SigSend {
  bool to_sender = false;
  NodeId dst = 0;  ///< ignored when to_sender
  std::uint32_t type = 0;

  bool operator==(const SigSend&) const = default;
  bool operator<(const SigSend& o) const {
    if (to_sender != o.to_sender) return to_sender < o.to_sender;
    if (dst != o.dst) return dst < o.dst;
    return type < o.type;
  }
};

/// One handler rule of one node. `trigger` is the message type for message
/// rules and an adapter-chosen marker for internal rules.
struct RuleSig {
  std::uint32_t trigger = 0;
  std::uint32_t guard = 0;
  std::uint32_t goto_state = 0;
  bool fail_assert = false;
  std::vector<SigSend> sends;  ///< compared as a multiset under renaming

  bool operator==(const RuleSig&) const = default;
};

/// A node's full behaviour signature: rule lists in table order (order is
/// identity — it drives the per-node fired-bit layout and scan order).
struct NodeSig {
  std::vector<RuleSig> internals;
  std::vector<RuleSig> msgs;
};

/// Maximal interchangeability classes of `nodes`: a ≡ b iff the
/// transposition (a b) is an automorphism of the whole rule table.
/// Transpositions compose, so the relation is transitive and union-find
/// closure is exact. Only classes with ≥ 2 members are returned, members
/// sorted, classes ordered by first member.
std::vector<std::vector<NodeId>> infer_classes(const std::vector<NodeSig>& nodes);

/// Validate + canonicalize class hints: members sorted and deduped, classes
/// with < 2 members dropped, classes ordered by first member. Throws
/// std::invalid_argument on out-of-range ids or overlapping classes.
std::vector<std::vector<NodeId>> normalize_classes(std::vector<std::vector<NodeId>> classes,
                                                   std::uint32_t num_nodes);

/// Number of distinct ordered arrangements of a class-sized multiset:
/// c! / prod(mult_k!), saturating at UINT64_MAX. `mults` are the
/// multiplicities of the distinct values (must sum to the class size).
std::uint64_t multiset_orbit_size(const std::vector<std::uint32_t>& mults);

/// Saturating add (orbit-size accounting).
inline std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return (a > UINT64_MAX - b) ? UINT64_MAX : a + b;
}

/// Canonical identity of a per-node state-hash tuple under `classes`:
/// class members contribute an order-independent fold of their sorted
/// multiset, everything else contributes (position, hash) in order. Two
/// tuples related by a within-class permutation get equal keys. Used by the
/// differential oracle's up-to-permutation violation comparator.
Hash64 canonical_key(const std::vector<Hash64>& per_node,
                     const std::vector<std::vector<NodeId>>& classes);

}  // namespace lmc::symmetry
