// The LMC benchmark (README.md in this directory): four fixed-work
// workloads, each a list of checker units; every unit is one
// LocalModelChecker run on one input. Work is fixed by exhaustive search or
// by max_transitions caps, never by a wall-clock budget, so every count
// repeats exactly and only time varies.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mc/clock.hpp"
#include "mc/invariant.hpp"
#include "mc/local_mc.hpp"
#include "runtime/state_machine.hpp"

namespace lmcbench {

using lmc::now_s;
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

// --- spans (traced runs only) ----------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
/// Spans of one workload pass share `pass`; `parent` is the enclosing span
/// (kNoParent at the top).
struct Span {
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t pass = 0;
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// In-memory span recorder; written out once, when the benchmark ends.
class Spans {
 public:
  void set_pass(std::uint32_t pass) { pass_ = pass; }
  std::uint32_t begin(std::string name);
  void end(std::uint32_t id);
  const std::vector<Span>& all() const { return spans_; }
  /// Per span name: summed duration minus the time child spans cover.
  std::vector<std::pair<std::string, double>> self_times() const;
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t pass_ = 0;
};

/// RAII span; a null recorder (tracing off) records nothing.
class SpanScope {
 public:
  SpanScope(Spans* s, std::string name)
      : s_(s), id_(s != nullptr ? s->begin(std::move(name)) : 0) {}
  ~SpanScope() {
    if (s_ != nullptr) s_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* s_;
  std::uint32_t id_;
};

// --- workloads ---------------------------------------------------------------

/// Outcome pinned at this commit for a unit's full search; -1 = not pinned.
struct Pin {
  std::int64_t transitions = -1;
  std::int64_t node_states = -1;
  std::int64_t system_states = -1;
  std::int64_t soundness_calls = -1;
  std::int64_t confirmed = -1;
};

struct Unit {
  std::string name;
  std::shared_ptr<const lmc::SystemConfig> cfg;
  std::shared_ptr<const lmc::Invariant> inv;
  /// The start: a live snapshot, or the initial states and no messages.
  std::vector<lmc::Blob> nodes;
  std::vector<lmc::Message> in_flight;
  lmc::LocalMcOptions opt;  ///< the unit's check: 1 thread, full search
  Pin pin;
  /// A confirmed violation exists, so time_to_bug_s runs a separate
  /// stop-at-first search. On a clean unit that search IS the full one.
  bool buggy = false;
};

/// Inputs of one workload, plus the set-up layer numbers.
struct Inputs {
  std::vector<Unit> units;
  double live_s = 0.0;   ///< LiveRunner::run_until seconds
  int periods = 0;       ///< online snapshots taken
  double dsl_load_s = 0.0;  ///< dsl::load_file + instantiate seconds
};

/// A workload: its name and how to build its inputs (BENCHMARK.json and
/// README.md say why each exists).
struct WorkloadDef {
  const char* name;
  /// Build the inputs; `reduced` selects the self-test size.
  std::function<Inputs(bool reduced, Spans* spans)> make;
};

const std::vector<WorkloadDef>& workloads();

// --- checker runs --------------------------------------------------------------

/// The Fig. 13 split: LMC-explore, system states without soundness, full.
enum class Mode { kExplore, kSweep, kFull };

struct RunResult {
  lmc::LocalMcStats stats;
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;  ///< hash of the normalized checkpoint (0 = not taken)
};

/// Construct and run one checker on `u`, timed and recorded as span `span`;
/// `inspect` sees the checker afterwards, outside the timed region.
RunResult run_unit(const Unit& u, unsigned threads, bool stop_on_confirmed, Mode mode,
                   bool fingerprint, Spans* spans, const char* span,
                   const std::function<void(const lmc::LocalModelChecker&)>& inspect = {});

/// Replay every confirmed witness of `mc` through the real handlers and
/// return how many failed; adds to *calls and *secs.
std::uint64_t replay_all(const lmc::SystemConfig& cfg, const lmc::LocalModelChecker& mc,
                         std::uint64_t* calls, double* secs);

/// The verdict gate: every checker run is one attempt, and it fails on any
/// mismatch with the unit's pins, a witness that does not replay, a
/// fingerprint that differs between passes or between 1 and par threads,
/// or a dropped deferral / truncated combination enumeration. Trivially
/// copyable, so a pass run in a child process can hand it back whole.
class Gate {
 public:
  static constexpr std::size_t kMaxUnits = 8;
  /// Count one run; an empty `problem` list is a pass.
  void record(const std::string& what, const std::vector<std::string>& problems);
  /// First full-search fingerprint of unit `i` becomes its reference.
  std::uint64_t& reference(std::size_t i) { return ref_fp_.at(i); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::array<std::uint64_t, kMaxUnits> ref_fp_{};
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// End-to-end times of one pass over every unit of a workload.
struct PassTimes {
  double check_s = 0.0;      ///< full searches at 1 thread
  double check_s_par = 0.0;  ///< the same at par threads
  double time_to_bug_s = 0.0;
  std::uint64_t transitions = 0;       ///< of the 1-thread full searches
  double soundness_wall_s_par = 0.0;   ///< stats.soundness_wall_s of the par full searches
  std::vector<double> unit_s;          ///< per unit: full search at 1 thread
  std::vector<double> unit_par_s;      ///< per unit: full search at par threads
  std::vector<double> unit_bug_s;      ///< per unit: its share of time_to_bug_s
};

/// Witness replays of a pass.
struct ReplayTally {
  std::uint64_t calls = 0;
  double secs = 0.0;
  std::uint64_t failures = 0;
};

/// Which runs of a pass to make: the 1-thread ones (the full search and, on
/// buggy units, the stop-at-first search), the full searches at par
/// threads, or both.
enum class Runs { kSerial, kParallel, kAll };

/// One fixed-work pass: per unit a full search at 1 thread, on buggy units a
/// stop-at-first search, and the full search at `par` threads; every run
/// goes through the gate. Par runs are checked against the fingerprint the
/// gate holds, so kParallel needs an earlier kSerial pass. A non-null
/// `replay` replays every witness; `on_full` sees each 1-thread full-search
/// checker (the traced run probes the layers there).
PassTimes run_pass(const Inputs& in, unsigned par, Gate& gate, Spans* spans, ReplayTally* replay,
                   const std::function<void(std::size_t unit, const lmc::LocalModelChecker&)>&
                       on_full = {},
                   Runs runs = Runs::kAll);

// --- per-layer measurement (traced run) -------------------------------------

/// Name, unit and value of one reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The traced pass over `in`: a gated pass with spans on, plus the Fig. 13
/// split runs and the layer probes. Returns every per-layer metric but
/// trace.* (the caller owns the untraced baseline) and reports the traced
/// 1-thread full-search seconds in *check_s_traced.
std::vector<Metric> traced_pass(const Inputs& in, unsigned par, Gate& gate, Spans& spans,
                                double* check_s_traced);

}  // namespace lmcbench
