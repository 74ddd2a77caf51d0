// Orbit canonicalization of local-state sets and system-state combinations
// (DESIGN.md §13).
//
// For each symmetry class the canonicalizer maintains a *universe*: the
// sorted set of distinct local-state hashes any member of the class has
// reached, each with a bitmask of which members hold it. A candidate
// combination is then identified not by "which state at which node" but by
// a *multiset over the universe* per class (plus concrete states at
// non-class nodes) — the canonical orbit representative of the
// sorted-by-serialized-blob family the ISSUE describes (hashes order blobs;
// within a class equal hashes mean equal blobs).
//
// Two concerns are deliberately split:
//  * enumeration (`for_each_multiset`): walk realizable multisets only — a
//    multiset is realizable iff the chosen occurrences admit a perfect
//    matching into the member availability masks (checked incrementally
//    with Kuhn's algorithm; unmatchable partial multisets never recover,
//    so the DFS prunes early);
//  * concretization (`first_assignment` / `for_each_assignment`): map a
//    multiset back to concrete member→state assignments, deterministically,
//    for invariant evaluation and phase-2 soundness verification.
//
// The orbit seen-set lives here too: the canonical orbit hash of every
// materialized combination, stored in a `HashIndex` that only the applier
// touches, with an insertion-order mirror that is sorted for checkpointing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mc/symmetry/role_group.hpp"
#include "runtime/hash.hpp"
#include "runtime/hash_index.hpp"
#include "runtime/types.hpp"

namespace lmc::symmetry {

/// Sorted-by-hash universe of one class's local states.
class ClassUniverse {
 public:
  struct Entry {
    Hash64 hash = 0;
    std::uint64_t members = 0;  ///< bitmask over class positions holding this state
  };

  /// Record that class position `member_pos` reached state `h`. Returns
  /// true when the (hash, member) pair was new.
  bool add(Hash64 h, std::uint32_t member_pos);

  /// Index of `h`, or SIZE_MAX.
  std::size_t find(Hash64 h) const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Resolved symmetry context of one checker run: the classes, per-class
/// universes, and the orbit seen-set.
class Canonicalizer {
 public:
  /// `classes` must be normalized (see normalize_classes). Class sizes are
  /// capped at 64 members (universe masks are one word); larger hints must
  /// be rejected by the caller.
  Canonicalizer(std::vector<std::vector<NodeId>> classes, std::uint32_t num_nodes);

  const std::vector<std::vector<NodeId>>& classes() const { return classes_; }
  std::uint32_t num_nodes() const { return num_nodes_; }

  /// Class index of `n`, or -1 for non-class nodes.
  std::int32_t class_of(NodeId n) const { return class_of_[n]; }
  /// Position of `n` within its class (valid only when class_of >= 0).
  std::uint32_t member_pos(NodeId n) const { return member_pos_[n]; }
  /// Non-class nodes, ascending.
  const std::vector<NodeId>& free_nodes() const { return free_nodes_; }

  const ClassUniverse& universe(std::size_t c) const { return universes_[c]; }

  /// Feed one state arrival (call at every store insert, applier only).
  /// No-op for non-class nodes. Returns true when the universe grew.
  bool add_state(NodeId n, Hash64 h);

  // -- orbit identity ------------------------------------------------------

  /// Canonical orbit hash of a candidate: `fixed` = (node, state-hash) of
  /// every non-class node in ascending node order; `counts[c][e]` = how many
  /// members of class c take universe entry e. Stable under universe growth
  /// (folds entry hashes, not indices).
  Hash64 orbit_key(const std::vector<std::pair<NodeId, Hash64>>& fixed,
                   const std::vector<std::vector<std::uint32_t>>& counts) const;

  /// Orbit size (distinct ordered arrangements) of a candidate, saturating.
  std::uint64_t orbit_size(const std::vector<std::vector<std::uint32_t>>& counts) const;

  /// Seen-set: true if already present, otherwise inserts and returns false.
  bool seen_or_mark(Hash64 orbit);
  /// Sorted seen-set snapshot (checkpoint section 13).
  std::vector<Hash64> seen_sorted() const;
  /// Restore a checkpointed seen-set (replaces the current one).
  void restore_seen(const std::vector<Hash64>& seen);
  std::size_t seen_count() const { return seen_list_.size(); }

  // -- enumeration ---------------------------------------------------------

  /// Walk every realizable size-|class| multiset over class `c`'s universe;
  /// when `forced` >= 0, only multisets containing universe entry `forced`.
  /// `cb(counts)` returns false to abort; the walk returns false if aborted.
  bool for_each_multiset(std::size_t c, std::ptrdiff_t forced,
                         const std::function<bool(const std::vector<std::uint32_t>&)>& cb) const;

  // -- concretization ------------------------------------------------------

  /// Lexicographically first perfect assignment realizing `counts` for
  /// class `c`: one universe-entry index per member position. Empty only if
  /// the multiset is unrealizable.
  std::vector<std::size_t> first_assignment(std::size_t c,
                                            const std::vector<std::uint32_t>& counts) const;

  /// All perfect assignments, lexicographic order. `cb` returns false to
  /// abort; returns false if aborted.
  bool for_each_assignment(std::size_t c, const std::vector<std::uint32_t>& counts,
                           const std::function<bool(const std::vector<std::size_t>&)>& cb) const;

 private:
  bool assignment_dfs(std::size_t c, std::vector<std::uint32_t>& rem,
                      std::vector<std::size_t>& pick, std::size_t member,
                      const std::function<bool(const std::vector<std::size_t>&)>& cb,
                      bool& aborted) const;

  std::vector<std::vector<NodeId>> classes_;
  std::uint32_t num_nodes_ = 0;
  std::vector<std::int32_t> class_of_;
  std::vector<std::uint32_t> member_pos_;
  std::vector<NodeId> free_nodes_;
  std::vector<ClassUniverse> universes_;

  HashIndex seen_;
  std::vector<Hash64> seen_list_;  ///< insertion-order mirror (sorted on demand)
};

}  // namespace lmc::symmetry
