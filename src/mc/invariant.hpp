// User-specified invariants over *system states* (the paper's key premise:
// invariants mention only node local states, never the network, §1 obs. 1).
//
// Beyond the boolean predicate, an invariant may expose a cheap per-node
// *projection*. LMC-OPT (§4.2 "System states") uses projections to build
// only those system states that could possibly violate the invariant:
//  * Paxos maps each node state to the values it has chosen; only
//    combinations where two projections disagree on an index are built.
//  * RandTree's children/siblings-disjoint invariant is per-node: only
//    combinations containing a self-violating node state are built.
//
// Contract: project(), projection_self_violates() and projections_conflict()
// must each be a pure function of its arguments — no hidden state, no
// dependence on call order or call count. LMC-OPT stores each distinct
// projection once and evaluates the predicates once per distinct projection,
// not once per node state: one answer stands for every state that maps to it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/state_machine.hpp"
#include "runtime/types.hpp"

namespace lmc {

/// A transient system state: one serialized local state per node
/// (non-owning; valid only during the invariant call).
using SystemStateView = std::vector<const Blob*>;

/// Per-node projection: sorted (key, value) pairs. The default conflict
/// rule is "same key, different value" (Paxos: key = consensus index,
/// value = chosen value).
using Projection = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

class Invariant {
 public:
  virtual ~Invariant() = default;

  virtual std::string name() const = 0;

  /// Full check on a combination of node states. True = invariant holds.
  virtual bool holds(const SystemConfig& cfg, const SystemStateView& sys) const = 0;

  /// Whether project()/conflict predicates are meaningful for this
  /// invariant (enables the LMC-OPT builder).
  virtual bool has_projection() const { return false; }

  /// Cheap summary of one node state; empty = cannot participate in any
  /// violation (such states are skipped entirely by LMC-OPT).
  virtual Projection project(const SystemConfig& /*cfg*/, NodeId /*n*/,
                             const Blob& /*state*/) const {
    return {};
  }

  /// A single projection already implies a violation (per-node invariants,
  /// e.g. RandTree disjointness).
  virtual bool projection_self_violates(const Projection& /*p*/) const { return false; }

  /// Whether the predicate is invariant under permuting node *positions*
  /// within each of `classes` (i.e. holds() reads the view through the
  /// node index only symmetrically for those positions). Symmetry
  /// reduction (src/mc/symmetry/) refuses to activate a class unless the
  /// invariant vouches for it, so the default is conservative.
  virtual bool symmetric_under(const std::vector<std::vector<NodeId>>& /*classes*/) const {
    return false;
  }

  /// Two projections together imply a possible violation. Default: some key
  /// present in both with different values.
  virtual bool projections_conflict(const Projection& a, const Projection& b) const {
    // Both sorted by key: linear merge.
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].first < b[j].first) {
        ++i;
      } else if (b[j].first < a[i].first) {
        ++j;
      } else {
        if (a[i].second != b[j].second) return true;
        ++i;
        ++j;
      }
    }
    return false;
  }
};

}  // namespace lmc
