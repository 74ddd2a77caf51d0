// DiffOracle: differential cross-check of the local checker against the
// global baseline on one protocol (generated or hand-written).
//
// The oracle re-proves, per protocol, the paper's two load-bearing claims:
//  * completeness — every node state inside any system state the global
//    B-DFS visits is traversed by LMC, and every invariant violation the
//    global search finds appears among LMC's CONFIRMED violations;
//  * soundness — every LMC confirmed violation names a system state the
//    global search also reached (no infeasible state admitted), its
//    invariant really fails, and its witness schedule replays through the
//    real handlers to exactly the claimed states.
// On top it checks the persistence contract: interrupting the same run
// mid-way and resuming from the checkpoint yields a byte-identical result
// set (stores, I+, violations, counters — wall-clock stats excluded).
//
// Both claims are decidable only against a COMPLETED baseline, so a budget
// stop on either checker makes the verdict `conclusive == false` (skipped,
// not failed). The whole pass is deterministic: unordered containers are
// sampled in sorted order and LMC runs with the PR 2 merge protocol, so a
// seed corpus reproduces bit-for-bit at any thread count.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "mc/invariant.hpp"
#include "mc/soundness.hpp"
#include "runtime/state_machine.hpp"

namespace lmc::obs {
class TraceSink;
class ProfileSink;
}

namespace lmc::dfuzz {

struct OracleOptions {
  std::uint64_t gmc_max_transitions = 2'000'000;
  double gmc_time_budget_s = 60.0;
  std::uint64_t lmc_max_transitions = std::numeric_limits<std::uint64_t>::max();
  double lmc_time_budget_s = 60.0;
  /// LMC phase-2 threads (PR 2): results must be identical for any value.
  unsigned num_threads = 1;

  bool check_gen = true;     ///< GEN-path differential run (exact violation sets)
  bool check_opt = true;     ///< OPT-path run when the invariant has a projection
  bool check_resume = true;  ///< mid-run checkpoint/resume round-trip
  bool check_replay = true;  ///< witness replay of every confirmed violation

  /// Re-run LMC with symmetry reduction (SymmetryMode::kAuto) and demand the
  /// confirmed-violation set match the unreduced run up to within-class
  /// permutation (symmetry::canonical_key), with every de-canonicalized
  /// witness replaying through the real handlers. Silently skipped when the
  /// reduction does not activate (no classes / ordered invariant).
  bool check_symmetry = false;

  /// Re-run LMC with partial-order reduction (PorMode::kOn, the runtime
  /// commutation auditor on at every prune decision) and demand the
  /// confirmed-violation set EXACTLY equal the unreduced run's — POR claims
  /// to skip redundant interleavings only, so unlike symmetry there is no
  /// permutation slack. Every reduced-run witness must replay, and a
  /// 1-thread and an 8-thread reduced run must produce byte-identical
  /// normalized checkpoints. Silently skipped when the reduction does not
  /// activate (no footprints / empty relation / bounded total or chain
  /// depth — pruning shifts recorded depths, so bounds would truncate).
  bool check_por = false;

  /// Sampled soundness audit: every k-th globally reached system state
  /// (sorted by tuple hash) must verify sound and replay. 0 disables —
  /// the audit is the old hand-written cross-check, quadratic-ish in
  /// tuple count, so fuzz runs keep it off and the ported tier-1
  /// cross-check test turns it on.
  std::uint32_t audit_every = 0;

  /// Run the GEN-path LMC with the ModelValidityAuditor
  /// (LocalMcOptions::audit_validity): every handler execution of the seed
  /// is audited for determinism, round-trip identity and hidden state. The
  /// GEN path executes every (state, event) pair, so one audited run covers
  /// the protocol; the OPT/resume re-runs stay unaudited for speed.
  bool audit_validity = false;

  /// Directory for the resume round-trip's scratch checkpoint file;
  /// empty = std::filesystem::temp_directory_path().
  std::string scratch_dir;

  /// Optional trace sink attached to the primary GEN-path LMC run only
  /// (the interrupted/resumed and OPT re-runs stay untraced so one sink
  /// holds one coherent exploration). Not owned.
  obs::TraceSink* trace = nullptr;

  /// Optional profile sink, same contract as `trace`: primary GEN-path run
  /// only, so the profile describes one coherent exploration. Not owned.
  obs::ProfileSink* profile = nullptr;

  SoundnessOptions soundness;
};

enum class OracleFailure {
  None,
  MissingNodeState,      ///< GMC reached a node state LMC never traversed
  GmcViolationMissing,   ///< a global violation is not among LMC's confirmed set
  UnsoundConfirmed,      ///< LMC confirmed a tuple the global search never reached
  InvariantHoldsOnConfirmed,  ///< confirmed violation whose invariant holds
  WitnessReplayFailed,
  ResumeMismatch,        ///< interrupted+resumed run diverged from the straight run
  AuditUnsound,          ///< sampled reachable tuple rejected by SoundnessVerifier
  AuditReplayFailed,
  OptViolationMissed,    ///< OPT found nothing where the global search found a bug
  OptSpuriousViolation,  ///< OPT confirmed where the global search found nothing
  ModelInvalid,          ///< ModelValidityAuditor rejected a handler execution
  SymmetryViolationMismatch,  ///< reduced/unreduced confirmed sets differ mod permutation
  SymmetryReplayFailed,       ///< a reduced run's de-canonicalized witness failed to replay
  PorViolationMismatch,  ///< POR-reduced confirmed set differs from the unreduced run's
  PorReplayFailed,       ///< a POR run's witness failed to replay
  PorThreadMismatch,     ///< 1-thread and 8-thread POR runs explored differently
  PorAuditFailed,        ///< runtime commutation auditor caught a divergent pair
};

const char* to_string(OracleFailure f);

/// Decode a checkpoint, zero the stats that describe the machine rather
/// than the exploration (clear_attribution) and the trace-segment stamps,
/// and re-encode: two runs explored identically iff these bytes are equal.
Blob normalized_checkpoint_bytes(const Blob& checkpoint);

struct OracleReport {
  bool ok = true;
  /// False when a checker hit a budget: no verdict either way.
  bool conclusive = true;
  OracleFailure failure = OracleFailure::None;
  std::string detail;

  // Coverage counters for corpus statistics.
  std::uint64_t gmc_states = 0;
  std::uint64_t gmc_transitions = 0;
  std::uint64_t gmc_system_tuples = 0;
  std::uint64_t gmc_violation_tuples = 0;  ///< deduplicated
  std::uint64_t lmc_node_states = 0;
  std::uint64_t lmc_transitions = 0;
  std::uint64_t lmc_confirmed = 0;
  std::uint64_t lmc_unsound_rejected = 0;
  std::uint64_t opt_confirmed = 0;
  std::uint64_t witnesses_replayed = 0;
  std::uint64_t tuples_audited = 0;
  std::uint64_t handler_audits = 0;  ///< handler executions audited (audit_validity)
  bool resume_checked = false;
  bool opt_checked = false;
  bool sym_checked = false;        ///< symmetry run completed with the reduction ACTIVE
  std::uint64_t sym_orbits = 0;    ///< canonical combinations the reduced run materialized
  std::uint64_t sym_confirmed = 0; ///< confirmed violations in the reduced run
  bool por_checked = false;          ///< POR run completed with the reduction ACTIVE
  std::uint64_t por_relation_pairs = 0;  ///< static independence pairs resolved
  std::uint64_t por_pruned = 0;      ///< deliveries the reduced run pruned
  std::uint64_t por_audits = 0;      ///< runtime commutation audits executed
  std::uint64_t por_confirmed = 0;   ///< confirmed violations in the reduced run
};

class DiffOracle {
 public:
  explicit DiffOracle(OracleOptions opt = {}) : opt_(opt) {}

  /// Cross-check both checkers from the protocol's initial states. With a
  /// null invariant only exploration completeness, the sampled audit and
  /// the resume round-trip run (there are no violations to compare).
  OracleReport check(const SystemConfig& cfg, const Invariant* invariant) const;

 private:
  OracleOptions opt_;
};

}  // namespace lmc::dfuzz
