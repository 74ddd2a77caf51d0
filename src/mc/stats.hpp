// Instrumentation counters for both checkers — these numbers regenerate
// Figures 10-13 and the transition-count comparison of §5.1.
//
// LocalMcStats is the one record of a local-checker run's counts and phase
// seconds (DESIGN.md §10). The trace holds the run's events and the profile
// holds its per-rule ledger; neither keeps a copy of these numbers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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

/// Symmetry-reduction counters (DESIGN.md §13); all zero when inactive.
struct SymmetryStats {
  std::uint64_t orbits = 0;            ///< canonical combinations materialized
  std::uint64_t orbit_hits = 0;        ///< enumeration re-reached a seen orbit
  std::uint64_t represented = 0;       ///< saturating sum of orbit sizes
  std::uint64_t assignments_tried = 0; ///< concrete assignments expanded in phase 2
  std::uint64_t orbit_defers = 0;      ///< violating orbits queued for the drain
  std::uint32_t classes = 0;           ///< number of active classes this run
  std::uint8_t active = 0;             ///< reduction resolved to on

  bool operator==(const SymmetryStats&) const = default;
};

/// Partial-order-reduction counters (DESIGN.md §14); all zero when inactive.
struct PorStats {
  std::uint8_t active = 0;             ///< reduction resolved on for this run
  std::uint64_t relation_pairs = 0;    ///< size of the static relation
  std::uint64_t pairs_pruned = 0;      ///< deliveries skipped by the pruner
  std::uint64_t conservative_skips = 0;  ///< prune candidates rejected for
                                         ///< missing/loop/discard outcomes
  std::uint64_t deferrals = 0;         ///< pairs held one generation for a
                                       ///< pred record still in flight
  std::uint64_t audits = 0;            ///< runtime commutation audits executed
  bool operator==(const PorStats&) const = default;
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
  SymmetryStats sym;
  PorStats por;
};

namespace detail {

// The field table: f(name, s.field...) once per LocalMcStats field, in
// declaration order. The name is the field's path, so a field and its name
// cannot drift apart.
template <class F, class... S>
void stat_table(F&& f, S&... s) {
#define LMC_STAT(path) f(#path, s.path...)
  LMC_STAT(transitions);
  LMC_STAT(node_states);
  LMC_STAT(system_states);
  LMC_STAT(invariant_checks);
  LMC_STAT(prelim_violations);
  LMC_STAT(confirmed_violations);
  LMC_STAT(unsound_violations);
  LMC_STAT(soundness_calls);
  LMC_STAT(feasibility_skips);
  LMC_STAT(soundness_deferred);
  LMC_STAT(deferred_processed);
  LMC_STAT(deferred_dropped);
  LMC_STAT(sequences_checked);
  LMC_STAT(verify_truncated);
  LMC_STAT(combo_truncated);
  LMC_STAT(dup_msgs_suppressed);
  LMC_STAT(history_skips);
  LMC_STAT(local_assert_discards);
  LMC_STAT(messages_in_iplus);
  LMC_STAT(checkpoints_written);
  LMC_STAT(checkpoint_failures);
  LMC_STAT(stored_bytes);
  LMC_STAT(elapsed_s);
  LMC_STAT(soundness_s);
  LMC_STAT(soundness_wall_s);
  LMC_STAT(system_state_s);
  LMC_STAT(deferred_s);
  LMC_STAT(completed);
  LMC_STAT(max_chain_depth_reached);
  LMC_STAT(max_total_depth_reached);
  LMC_STAT(sym.orbits);
  LMC_STAT(sym.orbit_hits);
  LMC_STAT(sym.represented);
  LMC_STAT(sym.assignments_tried);
  LMC_STAT(sym.orbit_defers);
  LMC_STAT(sym.classes);
  LMC_STAT(sym.active);
  LMC_STAT(por.active);
  LMC_STAT(por.relation_pairs);
  LMC_STAT(por.pairs_pruned);
  LMC_STAT(por.conservative_skips);
  LMC_STAT(por.deferrals);
  LMC_STAT(por.audits);
#undef LMC_STAT
}

}  // namespace detail

/// Visit every field of `s` once, in declaration order, as f(name, field),
/// with names such as "transitions" and "sym.orbits". Outside the struct
/// this is the only list of its fields: the checkpoint's stats section,
/// `lmc_ckpt inspect` and the profile's stat lines are all written from it.
template <class S, class F>
void for_each_stat(S& s, F&& f) {
  detail::stat_table(f, s);
}

/// Fold one field of another run into `into`. Counts and seconds add;
/// `completed` holds only while every run completed; the narrow gauges
/// (depths reached, class count, active flags) keep the maximum.
template <class T>
void merge_stat(T& into, const T& from) {
  if constexpr (std::is_same_v<T, bool>)
    into = into && from;
  else if constexpr (std::is_floating_point_v<T> || sizeof(T) == sizeof(std::uint64_t))
    into += from;
  else
    into = std::max(into, from);
}

/// Fold the stats of another run into `into`, field by field. Start a fold
/// from `stats_fold_start()`, whose `completed` is true.
inline void merge_stats(LocalMcStats& into, const LocalMcStats& from) {
  detail::stat_table([](const char*, auto& a, const auto& b) { merge_stat(a, b); }, into, from);
}

inline LocalMcStats stats_fold_start() {
  LocalMcStats s;
  s.completed = true;
  return s;
}

/// Zero the fields that describe the machine rather than the exploration:
/// wall and aggregate seconds, the memory footprint, and the audit counter
/// (which tracks the audit setting). What remains is equal for every run of
/// the same search at any thread count.
inline void clear_attribution(LocalMcStats& s) {
  s.elapsed_s = 0.0;
  s.soundness_s = 0.0;
  s.soundness_wall_s = 0.0;
  s.system_state_s = 0.0;
  s.deferred_s = 0.0;
  s.stored_bytes = 0;
  s.por.audits = 0;
}

}  // namespace lmc
