// Instrumentation counters for both checkers — these numbers regenerate
// Figures 10-13 and the transition-count comparison of §5.1.
#pragma once

#include <cstdint>

namespace lmc {

struct GlobalMcStats {
  std::uint64_t transitions = 0;        ///< handler executions
  std::uint64_t unique_states = 0;      ///< deduplicated global states visited
  std::uint64_t revisits = 0;           ///< hits in the visited set
  std::uint64_t invariant_checks = 0;
  std::uint64_t violations = 0;
  std::uint64_t dup_msgs_suppressed = 0;
  std::uint64_t local_assert_failures = 0;
  std::size_t peak_bytes = 0;           ///< visited set + deepest stack (Fig. 12)
  double elapsed_s = 0.0;
  bool completed = false;               ///< search exhausted within the bounds
  std::uint32_t max_depth_reached = 0;
};

struct LocalMcStats {
  std::uint64_t transitions = 0;          ///< handler executions (cf. §5.1: 1,186 vs 157,332)
  std::uint64_t node_states = 0;          ///< "LMC-local" in Fig. 11
  std::uint64_t system_states = 0;        ///< combinations materialized (Fig. 11)
  std::uint64_t invariant_checks = 0;
  std::uint64_t prelim_violations = 0;    ///< invariant failed on a combination
  std::uint64_t confirmed_violations = 0; ///< survived soundness verification
  std::uint64_t unsound_violations = 0;   ///< rejected by soundness verification
  std::uint64_t soundness_calls = 0;      ///< isStateSound invocations (§5.4: 773)
  std::uint64_t feasibility_skips = 0;    ///< combos rejected by the cached member pre-check
  std::uint64_t soundness_deferred = 0;   ///< quick-pass truncations queued for phase 2
  std::uint64_t deferred_processed = 0;   ///< phase-2 verifications completed
  std::uint64_t deferred_dropped = 0;     ///< deferrals lost to queue overflow (possible misses)
  std::uint64_t sequences_checked = 0;    ///< joint-search expansions summed over soundness
                                          ///< calls (our counterpart of the paper's
                                          ///< isSequenceValid invocations, §5.4: 427,731)
  std::uint64_t verify_truncated = 0;     ///< phase-2 unsound verdicts whose joint search hit
                                          ///< max_schedules (inconclusive refutations)
  std::uint64_t combo_truncated = 0;      ///< combination enumeration hit a cap
  std::uint64_t dup_msgs_suppressed = 0;
  std::uint64_t history_skips = 0;        ///< deliveries skipped via state history
  std::uint64_t local_assert_discards = 0;///< node states discarded on local assert
  std::uint64_t messages_in_iplus = 0;
  std::uint64_t warm_pairs_skipped = 0;   ///< handler executions replayed from the ExecCache
  std::uint64_t checkpoints_written = 0;  ///< auto-checkpoints saved during the run
  std::uint64_t checkpoint_failures = 0;  ///< auto-checkpoint writes that failed (run continued)
  std::size_t stored_bytes = 0;           ///< LS + I+ footprint (Fig. 12)
  double elapsed_s = 0.0;
  double soundness_s = 0.0;               ///< time inside soundness verification; with
                                          ///< num_threads > 1 this sums per-call durations
                                          ///< across workers (AGGREGATE, not wall, seconds —
                                          ///< it can exceed elapsed_s; see soundness_wall_s)
  double soundness_wall_s = 0.0;          ///< wall time of the soundness phases as observed
                                          ///< by the merging thread (always <= elapsed_s)
  double system_state_s = 0.0;            ///< wall time creating/checking system states
  double deferred_s = 0.0;                ///< wall time in the phase-2 deferred drain
  bool completed = false;
  std::uint32_t max_chain_depth_reached = 0;
  std::uint32_t max_total_depth_reached = 0;
};

}  // namespace lmc
