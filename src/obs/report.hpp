// Trace and profile analysis behind the lmc_report CLI (DESIGN.md §10).
//
// A report ingests "lmc-trace/1" JSONL and rebuilds the checker's aggregate
// counters from first principles: phase wall seconds are sums of the
// per-event durations IN FILE ORDER — the same order the checker
// accumulated them into LocalMcStats — so for a trace covering a full fresh
// run the reproduced elapsed_s / soundness_wall_s / deferred_s / transition
// totals agree with the stats struct counter-exactly (bit-for-bit for the
// doubles; tests/test_obs.cpp pins this). A stream may hold several run
// segments (one sink over CrystalBall periods, concatenated fuzz traces, a
// run and its resume): the run totals are summed over the segments, and a
// resumed segment adds only what lies beyond the segment it continues.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace lmc::obs {

/// Aggregates rebuilt from one trace stream.
struct ReportSummary {
  std::uint64_t events = 0;

  // Counters (reproduce LocalMcStats counter-exactly for full-run traces).
  std::uint64_t transitions = 0;        ///< kHandlerApply events
  std::uint64_t state_inserts = 0;      ///< kStateInsert events
  std::uint64_t iplus_appends = 0;      ///< kIplusAppend events
  std::uint64_t combinations = 0;       ///< sum of kComboSweep b
  std::uint64_t prelim_violations = 0;  ///< sum of kComboSweep c
  std::uint64_t soundness_jobs = 0;     ///< kSoundnessVerdict events
  std::uint64_t verdicts[5] = {0, 0, 0, 0, 0};  ///< by kVerdict* kind
  std::uint64_t schedules = 0;          ///< sum of kSoundnessVerdict b
  std::uint64_t deferrals = 0;          ///< verdicts[kVerdictDefer]
  std::uint64_t checkpoints = 0;        ///< kCheckpointSave events with a=ok
  std::uint64_t worker_errors = 0;      ///< kWorkerError events
  std::uint64_t worker_exceptions_dropped = 0;  ///< sum of kWorkerError a
  bool por_active = false;              ///< any kPorResolve seen
  std::uint64_t por_relation_pairs = 0; ///< from the last kPorResolve `a`
  std::uint64_t por_unclassifiable = 0; ///< from the last kPorResolve `c`
  std::uint64_t por_pruned = 0;         ///< from the last kPorPrune `b` (cumulative)
  std::uint64_t por_conservative = 0;   ///< from the last kPorPrune `c` (cumulative)
  std::uint64_t por_prune_rounds = 0;   ///< kPorPrune events (rounds that pruned)
  std::uint32_t rounds = 0;             ///< max round seen
  std::uint64_t run_begins = 0, run_ends = 0;
  std::uint64_t base_transitions = 0;   ///< from the first kRunBegin (resume)
  std::uint64_t final_transitions = 0;  ///< kRunEnd `a`, summed over run segments
  std::uint64_t confirmed = 0;          ///< kRunEnd `b`, summed over run segments
  bool completed = false;               ///< from the last kRunEnd `c`

  // Durations, summed in file order (= stats accumulation order).
  double elapsed_s = 0.0;         ///< kRunEnd dur, summed over run segments
  double sweep_s = 0.0;           ///< Σ kComboSweep dur  (== stats system_state_s)
  double soundness_wall_s = 0.0;  ///< Σ kSoundnessPhase dur
  double soundness_agg_s = 0.0;   ///< Σ kSoundnessVerdict dur (== stats soundness_s)
  double deferred_s = 0.0;        ///< Σ kDeferralDrain dur
  double checkpoint_s = 0.0;      ///< Σ kCheckpointSave dur
  double handler_exec_s = 0.0;    ///< Σ kHandlerRun dur (aggregate across workers)

  struct RuleLine {
    std::uint64_t runs = 0;
    double exec_s = 0.0;
  };
  /// Per-rule: key = (node, is_message). Internal-event rules are (node, 0).
  std::map<std::pair<std::uint32_t, std::uint64_t>, RuleLine> rules;

  struct LaneLine {
    std::uint64_t events = 0;
    double busy_s = 0.0;  ///< Σ dur of worker events on this lane
  };
  std::map<std::uint16_t, LaneLine> lanes;  ///< lane 0 = deterministic thread
};

/// Parse every "lmc-trace/1" line in `path` (other lines are skipped, so a
/// mixed obs file works). Throws on unreadable files.
std::vector<TraceEvent> load_trace_file(const std::string& path);

/// Rebuild aggregates from a trace stream (events in file order).
ReportSummary summarize(const std::vector<TraceEvent>& events);

/// Human-readable where-did-time-go breakdown.
void print_report(const ReportSummary& s, std::FILE* out);

/// The report's own "lmc-bench/1" record (bench="lmc_report", case=label).
std::string report_bench_json(const ReportSummary& s, const std::string& case_label);

/// The phase rows of a profile report, read from the summed run stats:
/// run = Σ elapsed_s, sweep = Σ system_state_s, soundness = Σ
/// soundness_wall_s, drain = Σ deferred_s, explore = run - sweep - drain.
/// Phase-1 soundness runs inside the sweep windows, phase-2 soundness
/// inside the drain, so every row is a share of run.
struct ProfilePhases {
  double run_s = 0.0;
  double explore_s = 0.0;
  double sweep_s = 0.0;
  double soundness_s = 0.0;
  double drain_s = 0.0;
};
ProfilePhases profile_phases(const ProfileData& prof);

/// Render a merged "lmc-prof/2" profile (lmc_report --profile): the phase
/// rows, every summed stat, the serialized/hashed byte totals of the rule
/// ledger, and the top_k hottest rules by handler wall seconds with
/// per-transition serialize/hash byte costs.
void print_profile_report(const ProfileData& prof, std::size_t top_k, std::FILE* out);

}  // namespace lmc::obs
