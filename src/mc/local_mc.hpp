// The local model checker (LMC) — the paper's contribution (§4).
//
// The checker never stores global or system states. It stores:
//  * LS_n — the set of traversed local states of each node n, and
//  * I+   — one shared, monotonically growing network of every message any
//           transition ever generated.
// Exploration follows Fig. 9's fixpoint: every message in I+ is executed
// on every not-yet-tried state of its destination node, and every state's
// enabled internal events are executed once. The cursor scans that discover
// this work list each generation's tasks in deterministic order; the pure
// handler part of a chunk of tasks runs on the worker pool, and the applier
// then applies the chunk's results in that order, so the exploration is
// byte-identical at any thread count (DESIGN.md §12). New states record
// predecessor pointers (event hash + generated-message hashes). System
// states are materialized only transiently, to check the invariant; a
// preliminary violation is confirmed by SoundnessVerifier before being
// reported.
//
// Variants (Figures 10-13):
//  * LMC-GEN: use_projection = false — every combination containing the new
//    node state is created and checked;
//  * LMC-OPT: use_projection = true — invariant-specific creation: only node
//    states mapped by the invariant's projection participate, and only
//    conflicting combinations are built (§4.2 "System states");
//  * LMC-explore: enable_system_states = false (Fig. 13);
//  * LMC-OPT-system-state: enable_soundness = false (Fig. 13).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyze/independence/independence.hpp"
#include "mc/invariant.hpp"
#include "mc/local_store.hpp"
#include "mc/parallel_local_mc.hpp"
#include "mc/soundness.hpp"
#include "mc/stats.hpp"
#include "mc/symmetry/canonicalizer.hpp"
#include "net/monotonic_network.hpp"
#include "persist/checkpoint.hpp"
#include "runtime/hash.hpp"
#include "runtime/state_machine.hpp"

namespace lmc {

namespace obs {
class TraceSink;
class ProfileSink;
}  // namespace obs

struct LocalMcOptions {
  /// Expand a node state only while its chain depth is below this.
  std::uint32_t max_chain_depth = std::numeric_limits<std::uint32_t>::max();
  /// Check combinations only when the sum of chain depths is at most this
  /// (the Depth axis of Figures 10-13); also bounds expansion.
  std::uint32_t max_total_depth = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t max_transitions = std::numeric_limits<std::uint64_t>::max();
  double time_budget_s = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation (e.g. by RacingChecker). Checked with budgets.
  const std::atomic<bool>* cancel = nullptr;
  bool stop_on_confirmed = true;

  bool enable_system_states = true;  ///< false = LMC-explore (Fig. 13)
  bool enable_soundness = true;      ///< false = LMC-*-system-state (Fig. 13)
  bool use_projection = false;       ///< true = LMC-OPT (requires invariant projection)

  /// §4.2 "Local assertions" offers two policies for a failed local assert:
  /// discard the node state as invalid (the paper's choice and our default
  /// — the usual cause is an unexpected delivery that I+'s conservative
  /// policy made possible), or ignore the assert and keep the successor
  /// state (a protocol bug will eventually violate a system invariant).
  enum class AssertPolicy { DiscardState, IgnoreViolation };
  AssertPolicy assert_policy = AssertPolicy::DiscardState;

  /// Threads for the parallel phases (1 = sequential): phase-1 handler
  /// execution (the pool executes a chunk of a generation's tasks, then
  /// the applier applies their results in deterministic cursor-scan order;
  /// at 1 thread each task executes right before it is applied), the LMC-GEN
  /// combination sweep per new node state (Cartesian shards), soundness
  /// verification of the sweep's preliminary violations, and the phase-2
  /// deferred drain. The LMC-OPT sweep tests one projection class per
  /// distinct projection and runs inline on the applier. All results
  /// merge in deterministic publication/enumeration order on the calling
  /// thread, so exploration, confirmed violations, witness schedules and
  /// checkpoints are byte-identical for any thread count. Invariants must
  /// be thread-safe for concurrent const use (pure predicates are). The one
  /// pool is lazily created, kept across rounds, and never serialized.
  unsigned num_threads = 1;

  /// Safety cap on combinations materialized per new node state (GEN).
  std::uint64_t max_system_states_per_step = std::numeric_limits<std::uint64_t>::max();

  /// Auto-checkpointing: when both are set, the checker saves its full
  /// state to `checkpoint_path` (atomically) every `checkpoint_every_s`
  /// wall seconds, at cooperative safepoints between task groups — the
  /// interval is honored even inside a long generation of slow handlers
  /// (the generation's unapplied tasks are serialized as `pending`, exactly
  /// like a budget stop). 0 disables.
  double checkpoint_every_s = 0.0;
  std::string checkpoint_path;

  /// Structured exploration tracing (obs/trace.hpp). nullptr (the default)
  /// disables tracing at near-zero cost: every call site is a null-pointer
  /// test, no event is allocated. The trace's identity content is a pure
  /// function of the exploration — attaching a sink never perturbs results,
  /// and the same run traces identically at any num_threads (DESIGN.md §10).
  /// The sink is runtime-only state: it is never serialized to checkpoints.
  /// A resumed run's trace covers only its own segment, but stays stitchable
  /// to the original's: kRunBegin carries the segment id in `seq` (0 for a
  /// fresh run, incremented per resume) plus the carried-over transition
  /// count, and round numbering continues from the checkpoint's round
  /// instead of restarting at 0.
  obs::TraceSink* trace = nullptr;

  /// Per-rule profiling (obs/prof.hpp, DESIGN.md §15). nullptr (the
  /// default) disables it at the cost of a null-pointer test per applied
  /// handler execution. The sink records each rule's run/byte ledger and
  /// handler-time histogram, and folds in this run's stats when it ends.
  /// The ledger's counts are a pure function of the exploration —
  /// byte-identical at any num_threads — while wall seconds and
  /// histograms are attribution. Like the trace sink it is runtime-only
  /// state, never serialized to checkpoints, and attaching it never
  /// perturbs exploration results.
  obs::ProfileSink* profile = nullptr;

  /// ModelValidityAuditor (runtime/audit.hpp): audit every handler execution
  /// for determinism, round-trip identity and hidden state. A failed audit
  /// throws ModelValidityError out of run*() — the model is invalid, so
  /// exploration results would be meaningless. Roughly doubles handler
  /// cost; a debug/CI knob, not a default.
  bool audit_validity = false;

  SoundnessOptions soundness;

  /// Symmetry reduction over replicated roles (src/mc/symmetry/, DESIGN.md
  /// §13). Defaults off, so every existing byte-identity gate is untouched.
  /// When it resolves to active (see the activation conditions on
  /// `LocalModelChecker::symmetry_classes`), the combination sweep
  /// enumerates one canonical representative per orbit of within-class
  /// permutations, `stats().system_states` counts orbits instead of ordered
  /// combinations, and every violating orbit is confirmed in the phase-2
  /// drain by expanding its concrete member assignments — so confirmed
  /// violations agree with the unreduced checker up to role permutation
  /// even for wrong class hints. kExplicit with malformed classes
  /// (overlapping / out of range) throws std::invalid_argument from run*().
  symmetry::SymmetryOptions symmetry;

  /// Sleep-set-style partial-order reduction driven by the static
  /// independence relation (analyze/independence/, DESIGN.md §14). Defaults
  /// off, so every existing byte-identity gate is untouched. Activation
  /// additionally requires registered handler footprints
  /// (SystemConfig::footprints), unbounded max_total_depth AND
  /// max_chain_depth (recorded depths are path-dependent under pruning —
  /// see resolve_por) and a non-empty derived relation;
  /// otherwise the run silently stays unreduced (stats().por.active == 0).
  /// Composes with `symmetry`: POR thins phase-1 deliveries, symmetry
  /// collapses the combination sweep — independent mechanisms.
  indep::PorOptions por;
};

class LocalModelChecker {
 public:
  LocalModelChecker(const SystemConfig& cfg, const Invariant* invariant, LocalMcOptions opt);

  /// findBugs(liveState, invariant) — explore from a live snapshot.
  void run(const std::vector<Blob>& nodes, const std::vector<Message>& in_flight);

  /// Explore from the protocol's initial states, empty network.
  void run_from_initial();

  /// Continue an interrupted run from a checkpoint file. The checker's
  /// stores, cursors, stats and the stopped round's unapplied tasks are
  /// restored, so the resumed exploration is exactly the one the original
  /// run would have performed (same states, transitions and violations) —
  /// see tests/test_persist.cpp for the pinned equivalence.
  void run_resumed(const std::string& path);

  /// Serialize the complete checker state (see persist/FORMAT.md).
  Blob checkpoint_bytes() const;
  void save_checkpoint(const std::string& path) const;
  /// Restore state from a checkpoint without running (run_resumed = load +
  /// continue). Throws CheckpointError on mismatch/corruption.
  void load_checkpoint(const std::string& path);
  void load_checkpoint_bytes(const Blob& data);

  const LocalMcStats& stats() const { return stats_; }
  /// Handler executions audited under audit_validity. Counted by the
  /// workers that run the audits, so it is a runtime atomic, not a stat.
  std::uint64_t audits_performed() const { return audits_performed_.load(std::memory_order_relaxed); }
  /// Worker exceptions beyond the first (rethrown) one of a failing fan-out
  /// — counted instead of silently lost: phase-1 handler errors of a chunk
  /// published after the rethrown one, and secondary sweep/soundness
  /// errors of the WorkerPool. A runtime count, not a stat; also surfaced
  /// as kWorkerError trace events and in lmc_report.
  std::uint64_t worker_exceptions_dropped() const {
    return handler_errors_dropped_ + (pool_ ? pool_->dropped_exceptions() : 0);
  }
  const std::vector<LocalViolation>& violations() const { return violations_; }
  /// First confirmed violation, or nullptr.
  const LocalViolation* first_confirmed() const;

  /// The symmetry classes the run resolved to (empty when the reduction is
  /// inactive). Activation requires symmetry.mode != kOff AND an invariant
  /// that vouches for the classes (Invariant::symmetric_under) AND the GEN
  /// sweep (use_projection with a projecting invariant is excluded) AND an
  /// unbounded max_total_depth (a finite total-depth filter is arrangement-
  /// dependent, which would break the orbit abstraction) AND at least one
  /// surviving class of 2..64 members.
  std::vector<std::vector<NodeId>> symmetry_classes() const {
    return canon_ != nullptr ? canon_->classes() : std::vector<std::vector<NodeId>>{};
  }
  /// The independence relation driving the reduction; null when inactive.
  const indep::IndependenceRelation* por_relation() const { return por_rel_.get(); }

  const LocalStore& store() const { return store_; }
  const MonotonicNetwork& iplus() const { return net_; }
  const EventTable& events() const { return events_; }
  /// The snapshot the run started from (empty before the first run).
  const std::vector<Blob>& initial_nodes() const { return start_.nodes; }
  const std::vector<Message>& initial_in_flight() const { return start_.in_flight; }
  const std::vector<Hash64>& initial_in_flight_hashes() const { return start_.in_flight_hashes; }

 private:
  struct Task {
    bool is_message = false;
    std::size_t net_idx = 0;     ///< message tasks: entry in I+
    NodeId node = 0;
    std::uint32_t state_idx = 0;
  };
  struct Exec {
    bool is_message = false;
    Hash64 ev_hash = 0;
    NodeId node = 0;
    std::uint32_t pred_idx = 0;
    ExecResult result;
    /// The result's identity (see digest): the hash of each sent message in
    /// send order, reserved at exactly result.sent.size(), and the
    /// successor's hash (unset when the assert policy discards the result).
    std::vector<Hash64> gen;
    Hash64 state_hash = 0;
    InternalEvent ev;      ///< internal tasks: the executed event
    double exec_s = 0.0;   ///< lane-measured handler seconds (tracing/profiling only)
  };

  void init_run(const std::vector<Blob>& nodes, const std::vector<Message>& in_flight);
  void explore_stream();
  std::vector<Task> publish_round();
  void apply_generation(const std::vector<Task>& tasks);
  std::vector<Exec> execute_task(const Task& t);
  /// Run e's handler on `state` (the message `msg`, or e.ev for an internal
  /// event) into e.result and, under audit_validity, audit it. Reads only
  /// its arguments and the config, so pool lanes can run it.
  void execute_audited(Exec& e, const Blob& state, const Message* msg);
  /// Fill e.gen and e.state_hash from e.result and its predecessor record.
  /// Reads only its arguments and the options, so pool lanes can run it.
  void digest(Exec& e, const NodeStateRec& pred) const;
  /// Whether the assert policy discards result r's successor state.
  bool discards(const ExecResult& r) const;
  void apply_exec(Exec& e, std::uint64_t seq);
  void check_snapshot_combination();
  void check_combinations(NodeId n, std::uint32_t idx);
  void check_one_combination(std::vector<std::uint32_t>& combo);
  bool combo_violates(const std::vector<std::uint32_t>& combo) const;
  std::uint32_t expand_bound() const;
  bool budget_exceeded() const;
  bool hard_budget_exceeded() const;
  void refresh_memory_stats();
  void finalize_stats();
  /// `unapplied`: the live generation's tasks not yet applied.
  void maybe_auto_checkpoint(std::span<const Task> unapplied);
  CheckerImage make_image() const;

  const SystemConfig& cfg_;
  const Invariant* invariant_;
  LocalMcOptions opt_;

  LocalStore store_;
  MonotonicNetwork net_;
  EventTable events_;
  StartSnapshot start_;                        ///< the snapshot the run started from
  std::vector<std::uint32_t> internal_scan_;   ///< per node: next state to scan for HA

  /// The projection index of LMC-OPT (§4.2 "invariant-specific creation"):
  /// each distinct non-empty projection is stored once as a class, every
  /// stored state carries its class id (kUnmapped for an empty projection),
  /// and every node lists the member states of each of its classes in
  /// ascending order. The invariant's predicates are pure functions of
  /// their projections (invariant.hpp), so sweep_opt tests each class of a
  /// node once instead of each of its states. Derived state: built only
  /// while system states are enabled (see indexes_projections), never
  /// serialized, rebuilt from the store on checkpoint load.
  struct ProjectionIndex {
    static constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();
    std::map<Projection, std::uint32_t> ids;      ///< projection -> class id
    std::vector<const Projection*> projs;         ///< class id -> its key in `ids`
    std::vector<std::vector<std::uint32_t>> cls;  ///< per node, parallel to LS_n: class id
    /// Per node: class id -> member state indices, ascending.
    std::vector<std::map<std::uint32_t, std::vector<std::uint32_t>>> members;

    void reset(std::size_t num_nodes);
    /// Index `p` as the projection of node n's next stored state.
    void add(NodeId n, Projection p);
    /// The projection of class c (the empty projection for kUnmapped).
    const Projection& projection(std::uint32_t c) const;
  };
  ProjectionIndex proj_index_;
  /// Whether this run keeps proj_index_: a projecting invariant whose system
  /// states are checked. LMC-explore reads no projection, so it computes none.
  bool indexes_projections() const;
  /// Project state idx of node n into proj_index_ (when indexing).
  void index_state(NodeId n, std::uint32_t idx);

  /// The per-member feasibility pre-check over the fixed members of
  /// `combo`, in node order (see SoundnessEngine::feasible).
  bool members_feasible(const std::vector<std::uint32_t>& combo);
  void record_confirmed(const std::vector<std::uint32_t>& combo, SoundnessResult res);
  void process_deferred();

  /// A combination awaiting (or deferred for) soundness verification —
  /// also the work item of the parallel verification phases. An LMC-OPT
  /// job pins only the nodes its projections name: the others hold
  /// kFreeNode, and `has_mask` is set (the checkpoint stores the pinned
  /// nodes as a mask beside a combo holding 0 at the free ones). `sym` marks
  /// an orbit representative from the symmetry sweep: the phase-2 drain
  /// expands all concrete member assignments of its orbit and confirms the
  /// first sound one (de-canonicalization).
  struct Deferred {
    std::vector<std::uint32_t> combo;
    bool has_mask = false;
    bool sym = false;
  };
  std::vector<Deferred> deferred_;

  // --- phase-2 parallel machinery (see DESIGN.md "Parallel phase 2") ------
  // A sweep for a new node state runs in two stages: (A) the enumeration
  // emits preliminary violations in enumeration order — LMC-GEN in shards
  // of the combination product with per-shard stat accumulators, LMC-OPT
  // inline, one predicate test per projection class — and (B) each
  // preliminary violation is verified (feasibility pre-check + quick-capped
  // joint search) independently, fanned out. Outcomes are merged on the
  // calling thread in enumeration order, so counters, the deferred queue,
  // confirmed violations and witness schedules are identical for any
  // thread count.
  void sweep_gen(NodeId n, std::uint32_t idx, std::vector<Deferred>& prelims);
  void sweep_opt(NodeId n, std::uint32_t idx, std::vector<Deferred>& prelims);
  // --- symmetry reduction (src/mc/symmetry/, DESIGN.md §13) ---------------
  /// Resolve LocalMcOptions::symmetry against the invariant/config and seed
  /// the per-class universes from the current store. Called from init_run
  /// and load_checkpoint_bytes; leaves canon_ null when inactive.
  void resolve_symmetry();
  /// Orbit-canonical replacement for sweep_gen: enumerate only canonical
  /// combinations (multisets over each class universe, concrete states at
  /// non-class nodes) containing the new state (n, idx). Runs inline on the
  /// applier — the orbit seen-set is single-writer by design.
  void sweep_sym(NodeId n, std::uint32_t idx);
  struct SymSweepCtx {
    std::uint64_t cap = 0;  ///< remaining max_system_states_per_step budget
    bool cap_noted = false;
  };
  /// Process one canonical candidate: orbit-hash dedup, stats, invariant
  /// check on the deterministic representative, defer-on-violation.
  /// Returns false when the sweep must stop (budget / cap).
  bool sym_consider(std::vector<std::uint32_t>& combo,
                    const std::vector<std::vector<std::uint32_t>>& counts, SymSweepCtx& ctx);
  /// Verify `jobs` in parallel, one chunk of kVerifyChunk jobs per
  /// fan-out, and merge outcomes in order; a stop ends the phase after the
  /// chunk that set it. phase2 = the deferred drain (full caps, no
  /// re-deferral).
  void verify_prelims(std::vector<Deferred> jobs, bool phase2);
  /// Run fn(0..n-1) on the persistent pool (created lazily; inline when
  /// num_threads <= 1 or n == 1). Worker exceptions rethrow here.
  void pool_run(std::size_t n, const std::function<void(std::size_t)>& fn);
  unsigned pool_width() const { return opt_.num_threads > 1 ? opt_.num_threads : 1; }

  /// Runtime-only worker pool — deliberately NOT part of CheckerImage /
  /// checkpoints (persist/FORMAT.md): thread state is not exploration state.
  std::unique_ptr<WorkerPool> pool_;
  /// Phase-1 handler errors of a chunk published after the one rethrown
  /// (see worker_exceptions_dropped()).
  std::uint64_t handler_errors_dropped_ = 0;

  /// Resolved symmetry context (classes, universes, orbit seen-set); null
  /// when the reduction is inactive. Rebuilt by resolve_symmetry.
  std::unique_ptr<symmetry::Canonicalizer> canon_;

  // --- partial-order reduction (analyze/independence/, DESIGN.md §14) -----
  /// Outcome of one historical message delivery at (node, pred state): the
  /// justification database of the publish-time prune rule.
  enum class FwdOutcome : std::uint8_t {
    kSucc = 0,       ///< delivery produced/rediscovered a successor state
    kNoop = 1,       ///< silent no-op: no state change, no sends
    kLoopSends = 2,  ///< self-loop that sent (duplicate/stale re-send)
    kDiscard = 3,    ///< assert-discarded delivery
    kPruned = 4,     ///< the pair itself was pruned — sleep-set seed
  };
  struct FwdKey {
    std::uint32_t pred_idx = 0;
    Hash64 ev_hash = 0;
    bool operator==(const FwdKey&) const = default;
  };
  struct FwdKeyHash {
    std::size_t operator()(const FwdKey& k) const {
      return static_cast<std::size_t>(mix64(k.ev_hash ^ (static_cast<Hash64>(k.pred_idx) + 1)));
    }
  };
  struct FwdRec {
    FwdOutcome outcome = FwdOutcome::kSucc;
    std::uint32_t succ = 0;  ///< kSucc only: successor index in LS_n
  };
  /// Resolve LocalMcOptions::por against the config (footprints registered,
  /// unbounded max_total_depth, non-empty derived relation). Called after
  /// resolve_symmetry from init_run and load_checkpoint_bytes; leaves
  /// por_rel_ null when inactive.
  void resolve_por();
  /// Verdict of the publish-time prune rule: publish the pair, prune it, or
  /// (first pass only) hold it one generation because an independent pred
  /// edge's forward record is still in flight in the current stream.
  enum class PruneVerdict : std::uint8_t { kPublish = 0, kPrune = 1, kDefer = 2 };
  /// The publish-time prune rule (DESIGN.md §14). Applier-only; mutates
  /// only POR statistics, and may run the sampled commutation auditor,
  /// which throws indep::PorAuditError on divergence. `allow_defer` is set
  /// on a pair's first consideration and cleared on its deferred retry.
  PruneVerdict try_prune_por(const MonotonicNetwork::Entry& e, NodeId d, std::uint32_t rec_idx,
                             const NodeStateRec& rec, bool allow_defer);
  void record_fwd(NodeId n, std::uint32_t pred_idx, Hash64 ev_hash, FwdOutcome out,
                  std::uint32_t succ);
  std::unique_ptr<indep::IndependenceRelation> por_rel_;  ///< null = POR inactive
  /// True iff every registered footprint write is a plain MergeKind::kNone
  /// assignment. Under that guard a kLoopSends record also justifies a
  /// prune: independence then implies fully disjoint write sets, so the
  /// message still self-loops after the pred edge and re-sends byte-
  /// identical traffic that the monotone I+ dedups (DESIGN.md §14).
  /// Derived from the config in resolve_por — never persisted.
  bool por_loop_sends_ok_ = false;
  /// Per node: delivery outcomes keyed by (pred state idx, message hash).
  /// kSucc/kLoopSends are reconstructible from preds/self_loops on
  /// checkpoint load; kNoop/kDiscard/kPruned leave no store trace and are
  /// persisted in checkpoint section 14.
  std::vector<std::unordered_map<FwdKey, FwdRec, FwdKeyHash>> por_fwd_;
  /// Message pairs deferred one generation (PruneVerdict::kDefer): decided
  /// for real at the top of the next publish_round, after the stream that
  /// carries their pred records has been applied. Serialized in checkpoint
  /// section 14 — cursors have already advanced past these pairs.
  std::vector<Task> por_deferred_;
  std::uint64_t por_audit_ctr_ = 0;  ///< audit_every sampling counter

  LocalMcStats stats_;
  /// store_.bytes() + net_.bytes(), kept current as states, edges and I+
  /// entries are added; stats_.stored_bytes is its maximum over the run.
  std::size_t live_bytes_ = 0;
  /// audit_validity counter; atomic because audits run on pool workers.
  std::atomic<std::uint64_t> audits_performed_{0};
  std::vector<LocalViolation> violations_;
  bool stop_ = false;
  double deadline_ = std::numeric_limits<double>::infinity();
  std::uint64_t combo_probe_ = 0;
  /// Tasks collected (cursors already advanced) but not applied when the
  /// last run stopped; serialized in checkpoints, replayed first on resume.
  std::vector<Task> pending_tasks_;
  double base_elapsed_s_ = 0.0;       ///< elapsed_s carried over from prior runs
  double run_t0_ = 0.0;               ///< wall start of the current run segment
  double last_checkpoint_s_ = 0.0;
  /// Round (task-generation) counter for trace attribution. Stamped
  /// into checkpoints (kSecSegment) so a resumed segment's trace continues
  /// the original numbering instead of restarting at 0.
  std::uint32_t cur_round_ = 0;
  /// Trace segment id: 0 for a fresh run, +1 per resume (kRunBegin.seq).
  /// Stamped into checkpoints alongside the round counter.
  std::uint64_t segment_id_ = 0;

  /// Message hashes each node's recorded transitions can generate (a live
  /// engine is told each new one); serialized in checkpoint section 6.
  std::vector<std::unordered_set<Hash64>> node_gens_;
  /// Pred/self-loop edges recorded per node: the engine's version of the
  /// node's graph, since a new edge anywhere in it can open new paths.
  std::vector<std::uint64_t> pred_edges_;
  /// The run's one soundness engine: closures and feasibility verdicts
  /// cached across verifications, synced on the applier before each
  /// verification phase. Created from the store and node_gens_ by a run
  /// segment's first verification and dropped when the segment ends;
  /// derived state, never serialized. Null while nothing was verified.
  std::unique_ptr<SoundnessEngine> engine_;
};

}  // namespace lmc
