// Structured exploration tracing (observability layer, DESIGN.md §10).
//
// A TraceSink collects typed, phase/round/worker-attributed events from one
// checker run (or a sequence of online period runs sharing the sink). Two
// append paths exist:
//  * record() — the checker's deterministic merge/apply path (single thread)
//    appends straight to the master stream;
//  * record_worker() — pool workers append to per-lane buffers (one buffer
//    per thread, owner-only writes, no locks on the hot path); at the end of
//    each parallel phase the calling thread drains the buffers into the
//    master stream, stable-sorted by the event's deterministic `seq` key
//    (the task/job enumeration index).
// Because drains happen at the same deterministic points where the checker
// merges worker results, the master stream's IDENTITY content — everything
// except wall timestamps, durations and lane attribution — is a pure
// function of the exploration, i.e. identical for any thread count and
// byte-identical between traced runs (tests/test_obs.cpp pins this, along
// with non-perturbation: tracing on vs. off changes no checker output).
// One deliberate exception: kRunBegin's `c` records the configured thread
// count (reports want it), so thread-count comparisons mask that field.
//
// Cost contract: tracing is compiled in but off by default. Every hot-path
// call site is guarded by the LMC_TRACE macro below, which evaluates its
// arguments ONLY when a sink is attached — a null-pointer test is the whole
// disabled-path cost, and no allocation happens when off.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lmc::obs {

/// Which part of the checker emitted the event (the "where did time go"
/// axis of lmc_report).
enum class Phase : std::uint8_t {
  kRun = 0,        ///< run/round lifecycle markers
  kExplore = 1,    ///< handler execution + store/I+ growth
  kSweep = 2,      ///< combination enumeration (system-state creation)
  kSoundness = 3,  ///< soundness verification of preliminary violations
  kDrain = 4,      ///< phase-2 deferred drain
  kCheckpoint = 5, ///< auto-checkpointing
  kOnline = 6,     ///< CrystalBall period loop
};

enum class EventType : std::uint8_t {
  kRunBegin = 0,         ///< a=mode (0 init, 2 resume; 1 retired), b=base transitions, c=threads
  kRunEnd = 1,           ///< a=transitions, b=confirmed, c=completed; dur=elapsed_s (cumulative)
  kRoundBegin = 2,       ///< a=tasks collected
  kRoundEnd = 3,         ///< a=tasks, b=total node states, c=I+ size; dur=round wall s
  kHandlerRun = 4,       ///< worker: a=is_message, b=ev_hash, c=0 (retired); dur=exec s; seq=task idx
  kHandlerApply = 5,     ///< apply: a=0 (retired), b=ev_hash, c=outcome (0 new, 1 dedup, 2 self-loop, 3 assert-discard)
  kStateInsert = 6,      ///< a=state idx, b=state hash, c=chain depth
  kIplusAppend = 7,      ///< a=msg hash, b=I+ size after; node=dst
  kComboSweep = 8,       ///< a=site (0 apply, 2 snapshot; 1 retired), b=combos checked, c=prelims; dur=sweep+verify wall s
  kSoundnessRun = 9,     ///< worker: a=verdict kind, dur=verify s; seq=job idx
  kSoundnessVerdict = 10,///< merge: a=verdict kind, b=schedules checked, c=phase2; dur=verify s; seq=job idx
  kSoundnessPhase = 11,  ///< one verify_prelims call: a=jobs, b=phase2; dur=wall s
  kDeferralDrain = 12,   ///< phase-2 drain: a=jobs drained; dur=wall s
  kCheckpointSave = 13,  ///< a=ok, b=checkpoints_written so far; dur=save wall s
  // 14 is retired (snapshot-merge warm start); ids are never reused.
  kOnlinePeriod = 15,    ///< a=period idx, b=transitions, c=found; dur=checker wall s
  kWorkerError = 16,     ///< a=secondary worker exceptions dropped, b=source (0 phase-1 chunk, 1 sweep/soundness fan-out)
  kPorPrune = 17,        ///< a=deliveries pruned this round, b=cumulative pruned, c=conservative skips
  kPorResolve = 18,      ///< a=independence-relation pairs, b=relation digest, c=unclassifiable pairs
};

/// Verdict kinds carried by kSoundnessRun / kSoundnessVerdict `a`.
enum : std::uint64_t {
  kVerdictSkipped = 0,  ///< budget/cancel hit before the job ran
  kVerdictFeasSkip = 1, ///< rejected by the per-member feasibility pre-check
  kVerdictSound = 2,
  kVerdictUnsound = 3,
  kVerdictDefer = 4,
};

struct TraceEvent {
  EventType type = EventType::kRunBegin;
  Phase phase = Phase::kRun;
  std::uint16_t lane = 0;      ///< worker lane (attribution only, not identity)
  std::uint32_t round = 0;     ///< exploration round (0 before the first)
  std::uint32_t node = kNoNode;///< node the event concerns, or kNoNode
  std::uint64_t seq = 0;       ///< deterministic ordering key for worker events
  std::uint64_t a = 0, b = 0, c = 0;  ///< typed payload (see EventType)
  double t = 0.0;              ///< seconds since sink creation (not identity)
  double dur = 0.0;            ///< duration in seconds; 0 when n/a

  static constexpr std::uint32_t kNoNode = 0xffffffffu;
};

const char* to_string(EventType t);
const char* to_string(Phase p);

class TraceSink {
 public:
  TraceSink();

  /// Append from the checker's deterministic (calling) thread.
  void record(TraceEvent ev);
  /// Append from a pool worker: goes to the calling thread's lane buffer.
  /// Owner-only writes — no lock is taken after the lane is registered.
  void record_worker(TraceEvent ev);
  /// Merge all lane buffers into the master stream, stable-sorted by seq.
  /// Must be called from the deterministic thread while workers are idle
  /// (i.e. after the pool fan-out returned).
  void drain_workers();

  /// Master stream (drained + ordered events, in deterministic order).
  const std::vector<TraceEvent>& events() const { return events_; }
  /// Worker events still sitting in lane buffers (normally 0 after a run).
  std::size_t undrained() const;
  std::size_t lanes() const;

  /// Seconds since the sink was created (the `t` origin).
  double since_start() const;

  void clear();

  /// Serialize the master stream as JSON lines ("lmc-trace/1": one object
  /// per event, numeric fields round-trip exactly via %.17g).
  void write_jsonl(const std::string& path) const;
  std::string to_jsonl() const;

 private:
  struct Lane {
    std::uint16_t id = 0;
    std::vector<TraceEvent> buf;
  };
  Lane* this_thread_lane();

  double t0_;
  std::uint64_t uid_;  ///< process-unique; keys the thread-local lane cache
  std::vector<TraceEvent> events_;
  mutable std::mutex lanes_mu_;  ///< guards lane registration/growth only
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// One trace event as a JSONL line (shared by the sink and tests).
std::string to_jsonl_line(const TraceEvent& ev);

/// Parse one "lmc-trace/1" JSONL line back into an event. Returns false on
/// anything that is not a trace event line (reports tolerate mixed files).
bool parse_jsonl_line(const std::string& line, TraceEvent& ev);

/// The identity projection of an event — everything the determinism
/// contract covers. Timestamps, durations and lane are attribution, not
/// identity: they differ between runs of the same exploration.
struct EventIdentity {
  std::uint8_t type = 0;
  std::uint8_t phase = 0;
  std::uint32_t round = 0;
  std::uint32_t node = 0;
  std::uint64_t seq = 0;
  std::uint64_t a = 0, b = 0, c = 0;
  bool operator==(const EventIdentity&) const = default;
  bool operator<(const EventIdentity& o) const;
};
EventIdentity identity(const TraceEvent& ev);
std::vector<EventIdentity> identities(const std::vector<TraceEvent>& evs);

}  // namespace lmc::obs

/// Hot-path guard: evaluates `call` (a member call on the sink) only when a
/// sink is attached. `sink` must be a TraceSink*.
#define LMC_TRACE(sink, call)          \
  do {                                 \
    if ((sink) != nullptr) (sink)->call; \
  } while (0)
