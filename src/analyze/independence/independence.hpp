// Static handler-independence analysis (DESIGN.md §14).
//
// Input: the per-rule footprints a protocol registered on its SystemConfig
// (runtime/footprint.hpp). Output: a conservative pairwise
// `IndependenceRelation` over per-node event keys — (message type) and
// (internal-event kind) pairs whose handlers commute from every state —
// plus lint diagnostics for every near-miss the checker had to classify
// conservatively:
//
//   IN01 indep-unclassifiable-pair  footprints disjoint on every checkable
//                                   axis, but a rule carries assertion
//                                   inputs outside its read set (or an
//                                   injected fail_assert) — kept dependent
//   IN02 indep-declared-unverifiable a DeclaredPair the static checker
//                                   cannot confirm — ADMITTED to the
//                                   relation on the author's word, flagged,
//                                   and left to the runtime commutation
//                                   auditor
//   IN03 indep-missing-metadata     a node without (complete) footprints —
//                                   every pair of that node is dependent
//
// The commutation conditions:
//  * table flavor: keys A != B with aggregated guard/goto sets satisfying
//    G_A∩G_B = ∅, T_A∩G_B = ∅, T_B∩G_A = ∅ — at any state at most one of
//    the two can match, and a non-matching delivery is a pure no-op (the
//    DSL digest folds only on match), so the orders trivially agree;
//  * field flavor: writes(A)∩reads(B) = ∅, writes(B)∩reads(A) = ∅, and any
//    shared written field uses the same commutative MergeKind on both sides
//    and is read by neither. Reads must cover send and assert inputs
//    (footprint.hpp contract), so equal read views imply equal sends.
//
// Self-pairs (a key against itself) are never derived statically: two
// messages of one type can race on the same counter/threshold even when
// the type's footprint is self-disjoint. They can only enter via a
// DeclaredPair — and stay under the auditor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/lint.hpp"
#include "runtime/footprint.hpp"
#include "runtime/hash.hpp"

namespace lmc::indep {

/// Canonical 64-bit key of an event class at a node.
constexpr std::uint64_t event_key(bool is_message, std::uint32_t key) {
  return (static_cast<std::uint64_t>(is_message ? 1u : 0u) << 32) | key;
}

/// Per-node sorted pair set with a deterministic digest. Queries are
/// order-insensitive; `seal()` must be called once after the last `add`.
class IndependenceRelation {
 public:
  IndependenceRelation() = default;
  explicit IndependenceRelation(std::uint32_t num_nodes) : per_node_(num_nodes) {}

  void add(NodeId node, std::uint64_t a, std::uint64_t b);
  void seal();

  bool independent(NodeId node, std::uint64_t a, std::uint64_t b) const;
  /// Total independent pairs across all nodes.
  std::uint64_t size() const;
  /// Digest of the sealed relation (node, lo, hi) triples in sorted order.
  /// Persisted in checkpoint section 14: a resumed run must prune with the
  /// exact relation the original run pruned with.
  Hash64 digest() const { return digest_; }

 private:
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> per_node_;
  Hash64 digest_ = 0;
  bool sealed_ = false;
};

/// Result of the static pass.
struct AnalysisResult {
  IndependenceRelation relation;
  std::vector<analyze::Diagnostic> diagnostics;  ///< IN01/IN02/IN03, sorted
  std::uint64_t derived_pairs = 0;   ///< pairs proven by footprint disjointness
  std::uint64_t declared_pairs = 0;  ///< pairs admitted from DeclaredPair
  std::uint64_t unclassifiable = 0;  ///< IN01 count (conservative fallbacks)
  std::uint64_t nodes_without_metadata = 0;  ///< IN03 count
};

/// Run the checker. `footprints` may be null (every node reports IN03 via a
/// single summary diagnostic and the relation is empty). `source_name` is
/// the display path used in diagnostics (e.g. the .lmc file or protocol
/// name).
AnalysisResult analyze_independence(const ProtocolFootprints* footprints,
                                    std::uint32_t num_nodes, const std::string& source_name);

/// The IN rule table (merged into `lmc_lint --list-rules` output).
const std::vector<analyze::RuleInfo>& indep_rules();

// --- checker-facing knobs ----------------------------------------------------

enum class PorMode : std::uint8_t { kOff = 0, kOn = 1 };

/// `LocalMcOptions::por` — partial-order reduction in phase-1 exploration.
struct PorOptions {
  PorMode mode = PorMode::kOff;
  /// Runtime commutation auditor: re-execute both orders from the serialized
  /// pre-state at prune decisions and throw PorAuditError on divergence.
  bool audit = false;
  /// Audit every Nth prune decision (1 = every decision). Ignored when
  /// `audit` is false.
  std::uint32_t audit_every = 1;
};

}  // namespace lmc::indep
