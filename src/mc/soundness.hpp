// A-posteriori soundness verification (§4.1 isStateSound/isSequenceValid,
// with the hash-only event accounting of §4.2).
//
// A preliminary invariant violation names one state per node; the system
// state is valid iff some interleaving of per-node event chains leading to
// those states could occur in a real run. The paper enumerates per-node
// event sequences from the predecessor pointers and greedily schedules each
// combination; it also notes that "the number of paths could exponentially
// increase with sequence size, which is the major cost in soundness
// verification" (§4.1). Near a bug the pred graph fans out so hard that
// materialized sequence sets overflow any cap before the one valid path is
// found, so verify() instead runs a *joint demand-driven search* over the
// same predecessor structure:
//  1. per node, collect the backward closure of the target state — the
//     sub-DAG of states on some root->target path — and its forward edges;
//  2. prune message edges whose message hash no other edge (or the
//     snapshot's in-flight set, or a recorded self-loop) can generate, and
//     drop states from which the target becomes unreachable;
//  3. DFS over joint positions (one per node) plus the multiset of
//     generated-but-unconsumed message hashes, memoizing visited joint
//     states; internal edges are always enabled, message edges need their
//     hash in the multiset; recorded self-loops fire when they contribute
//     a new message.
// A run that starts every node on its snapshot state LS_n[0] and parks it on
// its target is a feasible schedule; it is returned as the witness (and can
// be re-executed by the replay validator). Everything is integer/hash
// comparisons — no handler runs.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "mc/local_store.hpp"

namespace lmc {

struct SoundnessOptions {
  std::uint64_t max_schedules = 1u << 20;  ///< joint-search expansion cap per verify()
  /// Two-phase verification (checker-side): a preliminary violation is
  /// first verified with this expansion cap. Sound combinations confirm
  /// almost immediately (tens of expansions); refuting an unsound one can
  /// cost thousands, so cap-hit combinations are deferred and re-verified
  /// with the full cap only after exploration finishes, within the time
  /// budget. 0 disables the quick pass.
  std::uint64_t quick_expansions = 512;
};

struct SoundnessResult {
  bool sound = false;
  Schedule schedule;                  ///< a feasible total order, if sound
  /// Final state index per node. Fixed nodes sit on their targets; free
  /// nodes wherever the feasible run left them (a co-reachable completion).
  std::vector<std::uint32_t> final_combo;
  std::uint64_t schedules_checked = 0;  ///< joint-search expansions
  bool truncated = false;               ///< some cap was hit (result may be incomplete)
};

/// Thread-safety: a verifier is immutable after construction — verify() and
/// target_feasible() are const, touch only the (frozen during a verification
/// phase) LocalStore plus per-call locals, and may run concurrently on one
/// instance or on independent instances. The parallel verification phase of
/// LocalModelChecker builds one verifier per job (the instances are cheap:
/// they borrow the store and copy the in-flight hashes).
class SoundnessVerifier {
 public:
  /// Every node starts at its snapshot state LS_n[0] (always the first state
  /// added); the snapshot's in-flight messages are available without any
  /// generating event.
  SoundnessVerifier(const LocalStore& store, std::vector<Hash64> initial_in_flight,
                    SoundnessOptions opt);

  /// Verify the system state formed by `combo` (one state index per node).
  /// When `fixed` is non-null, only nodes with fixed[n] == true must reach
  /// combo[n]; the others are free — the search may drive them through any
  /// recorded transitions (their whole traversed graph) and parks them
  /// wherever the feasible run ends. Free nodes make pair-conflict
  /// violations (LMC-OPT) verifiable in ONE search instead of one per
  /// combination of bystander states.
  SoundnessResult verify(const std::vector<std::uint32_t>& combo,
                         const std::vector<bool>* fixed = nullptr) const;

  /// Cheap necessary condition for any combination containing (n, target):
  /// can the target still be reached when every message any OTHER node ever
  /// generated (`other_avail`, plus the snapshot's in-flight set) is assumed
  /// available? If not, every combination with this member is unsound and
  /// the full search can be skipped. The caller caches results — they only
  /// change when other_avail grows.
  bool target_feasible(NodeId n, std::uint32_t target,
                       const std::unordered_set<Hash64>& other_avail) const;

 private:
  const LocalStore& store_;
  std::vector<Hash64> initial_in_flight_;  ///< the snapshot's in-flight message hashes
  SoundnessOptions opt_;
};

}  // namespace lmc
