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
// found, so verification instead runs a *joint demand-driven search* over
// the same predecessor structure:
//  1. per node, the backward closure of the target state — the sub-DAG of
//     states on some root->target path — and its forward edges (free nodes
//     use the node's whole graph);
//  2. prune message edges whose message no other edge (or the snapshot's
//     in-flight set, or a recorded self-loop) can generate, and drop states
//     from which the target becomes unreachable;
//  3. DFS over joint positions (one per node) plus the multiset of
//     generated-but-unconsumed messages, memoizing visited joint states;
//     internal edges are always enabled, message edges need their message
//     in the multiset; recorded self-loops fire when they contribute a new
//     message.
// A run that starts every node on its snapshot state LS_n[0] and parks it on
// its target is a feasible schedule; it is returned as the witness (and can
// be re-executed by the replay validator). Everything is integer/hash
// comparisons — no handler runs.
//
// SoundnessEngine reduces each per-node closure once and reuses it across
// every composition that names it (per-component reduction before
// composition, as in partial model checking): a (node, target) closure is
// built once per version of the node's graph, over dense 32-bit ids for the
// message and event hashes, with its out-edges in CSR form. A call composes
// the cached closures, prunes them on bitsets, and runs the joint DFS over a
// per-id count array with an incrementally maintained joint hash.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mc/local_store.hpp"
#include "runtime/hash_index.hpp"

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

/// A combination entry that marks a free node: the search may drive it
/// through any recorded transition and parks it wherever the feasible run
/// ends (see SoundnessEngine::verify).
inline constexpr std::uint32_t kFreeNode = UINT32_MAX;

/// The cached closures, dense ids and joint search behind every soundness
/// verdict. It borrows the store; LS_n[0] (the first state added) is every
/// node's start, and the snapshot's in-flight messages are available
/// without any generating event.
///
/// Versions: a node's closures describe its graph as of the last sync(), so
/// a caller whose store grows syncs each node before verifying against it.
///
/// Thread-safety: sync() and note_generated() need exclusive access (the
/// checker calls them on its applier between fan-outs, while the store is
/// frozen). feasible(), prepare() and verify() may run concurrently: a
/// cached closure or verdict is read without a lock, and a miss builds it
/// under one mutex. The checker prepares every closure and verdict a
/// fan-out's jobs name before the fan-out, so its workers only read.
class SoundnessEngine {
 public:
  SoundnessEngine(const LocalStore& store, const std::vector<Hash64>& initial_in_flight);
  ~SoundnessEngine();
  SoundnessEngine(const SoundnessEngine&) = delete;
  SoundnessEngine& operator=(const SoundnessEngine&) = delete;

  /// Record that an execution on node n sent message h — also one whose
  /// successor a local assert discarded, which leaves no pred edge behind.
  /// feasible() assumes every message another node ever sent is available.
  void note_generated(NodeId n, Hash64 h);

  /// Drop node n's cached closures and verdicts when its state count or
  /// `edges` (its recorded pred and self-loop edges) moved since the last
  /// sync: a new edge anywhere in the graph can open new paths.
  void sync(NodeId n, std::uint64_t edges);

  /// The per-member pre-check, a necessary condition for any combination
  /// containing (n, target): can the target still be reached from LS_n[0]
  /// when every message any OTHER node ever generated (plus the snapshot's
  /// in-flight set) is assumed available? The verdict is kept on the
  /// closure with the other nodes' generated-message count it was computed
  /// at; a feasible verdict stays feasible, an infeasible one is recomputed
  /// once that count grows.
  bool feasible(NodeId n, std::uint32_t target);

  /// Build, on the calling thread, every closure verify(combo) reads.
  void prepare(const std::vector<std::uint32_t>& combo);

  /// Verify the system state formed by `combo` (one state index per node,
  /// or kFreeNode): fixed nodes must reach combo[n]; free nodes may take
  /// any recorded transition (their whole graph) and park wherever the
  /// feasible run ends. Free nodes make pair-conflict violations (LMC-OPT)
  /// verifiable in ONE search instead of one per combination of bystander
  /// states. The DFS visits nodes in index order and each state's
  /// out-edges in the order the closure recorded, so the witness found,
  /// where free nodes park and whether `max_expansions` suffices are
  /// functions of the store alone.
  SoundnessResult verify(const std::vector<std::uint32_t>& combo, std::uint64_t max_expansions);

 private:
  struct Closure;
  struct Buffers;
  class Search;

  /// id -> hash, appended under the build mutex in chunks that never move
  /// (chunk c holds 256 << c ids), so a reader of an id published with a
  /// closure needs no lock.
  class HashLog {
   public:
    Hash64 operator[](std::uint32_t id) const;
    void append(std::uint32_t id, Hash64 h);

   private:
    std::array<std::unique_ptr<Hash64[]>, 24> chunks_;
  };
  /// Per node: the graph version its closures describe, and one slot per
  /// target state plus a last one for the full graph.
  struct NodeCache {
    std::uint32_t states = 0;
    std::uint64_t edges = 0;
    std::unique_ptr<std::atomic<Closure*>[]> slots;
  };

  static Buffers& buffers();  ///< this thread's call buffers
  /// The closure of (n, target), or n's full graph for kFreeNode; a miss
  /// builds it under the build mutex.
  const Closure& closure(NodeId n, std::uint32_t target);
  // The build mutex is held in these three.
  std::uint32_t id_of(Hash64 h);
  Closure* build(NodeId n, std::uint32_t target);
  bool compute_feasible(NodeId n, const Closure& c) const;
  std::uint64_t others_generated(NodeId n) const;
  void drop(NodeCache& nc);

  const LocalStore& store_;
  std::uint32_t flight_ids_ = 0;             ///< in-flight messages hold ids [0, flight_ids_)
  std::vector<std::uint32_t> flight_count_;  ///< per in-flight id: its multiplicity
  Hash64 flight_hash_ = 0;                   ///< joint-hash share of the in-flight multiset

  std::mutex build_mu_;  ///< guards ids_, gen_by_, local_of_ and slot writes
  HashIndex ids_;        ///< hash -> dense id
  HashLog hashes_;
  std::uint32_t num_ids_ = 0;
  std::uint32_t mask_words_ = 1;           ///< words per id in gen_by_
  std::vector<std::uint64_t> gen_by_;      ///< per id: mask of the nodes that generated it
  std::vector<std::uint64_t> gen_counts_;  ///< per node: distinct messages it generated
  std::vector<NodeCache> nodes_;
  std::vector<std::uint32_t> local_of_;    ///< build buffer: store index -> local
};

/// One-off verification against a finished store: the constructor builds a
/// private SoundnessEngine synced to the store as it is then, so construct
/// the verifier after the store stops growing. verify() is const and may
/// run concurrently.
class SoundnessVerifier {
 public:
  SoundnessVerifier(const LocalStore& store, std::vector<Hash64> initial_in_flight,
                    SoundnessOptions opt);

  /// Verify the system state formed by `combo` (one state index per node).
  /// When `fixed` is non-null, only nodes with fixed[n] == true must reach
  /// combo[n]; the others are free (see SoundnessEngine::verify).
  SoundnessResult verify(const std::vector<std::uint32_t>& combo,
                         const std::vector<bool>* fixed = nullptr) const;

 private:
  std::unique_ptr<SoundnessEngine> engine_;
  SoundnessOptions opt_;
};

}  // namespace lmc
