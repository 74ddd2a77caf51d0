// Deep performance profiling (observability layer, DESIGN.md §15).
//
// A ProfileSink attributes checker cost at (phase, node, rule/event-kind)
// granularity: a typed counter registry (bytes hashed/serialized, states
// canonicalized, ExecCache hits/misses per shard, POR prunes, orbit
// collapses, ...), per handler rule a run/byte ledger plus a log-bucketed
// wall-time histogram, and per-phase wall seconds. Like the TraceSink it
// has two append paths:
//  * count()/rule()/... — the checker's deterministic merge/apply path
//    accumulates straight into the master slab;
//  * count_worker()/time_worker() — pool workers accumulate into per-lane
//    slabs (one per thread, owner-only writes, no locks on the hot path);
//    drain_workers() folds the slabs into the master at the same
//    deterministic points where the checker merges worker results.
// Because every identity quantity (counts and byte totals) is a pure
// function of the exploration and addition commutes, the merged identity
// aggregates — identity_text() — are byte-identical at 1 vs N threads.
// Wall seconds and histograms are ATTRIBUTION: they depend on the machine
// and scheduling and are excluded from identity (exactly the trace layer's
// identity/attribution split). The sink is runtime-only state — it is never
// serialized into checkpoints, so normalized checkpoint bytes are identical
// with profiling on or off (tests/test_obs.cpp pins both obligations).
//
// Cost contract: profiling is compiled in but off by default. Hot-path call
// sites are guarded by the LMC_PROF macro below — a null-pointer test is
// the whole disabled-path cost, and no allocation happens when off.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"  // Phase (shared axis with the trace layer)

namespace lmc::obs {

/// The typed counter registry. Every counter is an identity quantity: its
/// final value is a pure function of the exploration (bumped only on the
/// deterministic apply/merge path or summed commutatively from worker
/// lanes), so it participates in the 1-vs-N byte-identity contract.
enum class Counter : std::uint8_t {
  kBytesHashed = 0,       ///< state-blob bytes run through hash_blob
  kBytesSerialized,       ///< result-state + sent-message bytes produced
  kStatesCanonicalized,   ///< local-state canonicalizations (symmetry)
  kOrbitCollapses,        ///< combination orbits collapsed into a seen key
  kPorPrunes,             ///< deliveries pruned by partial-order reduction
  kPorDeferrals,          ///< POR prunes deferred to the phase-2 drain
  kExecCacheHits,         ///< authoritative ExecCache lookup hits
  kExecCacheMisses,       ///< authoritative ExecCache lookup misses
  kHandlerRuns,           ///< uncached handler executions applied
  kCachedReplays,         ///< cached ExecCache replays applied
  kSoundnessJobs,         ///< soundness verification jobs completed
  kCount
};
const char* to_string(Counter c);

/// ExecCache shard fan-out mirrored by the per-shard hit/miss counters.
inline constexpr std::size_t kProfShards = 16;

/// Log-bucketed wall-time histogram. Bucket 0 counts samples below 1ns;
/// bucket i >= 1 counts samples in [2^(i-1), 2^i) nanoseconds. 48 buckets
/// reach ~78 hours — far beyond any single handler execution.
struct TimeHist {
  static constexpr std::size_t kBuckets = 48;
  std::uint64_t count[kBuckets] = {};
  double total_s = 0.0;

  void add(double secs);
  void merge(const TimeHist& o);
  std::uint64_t samples() const;
};

/// Identity of one handler rule: which node ran which kind of handler.
/// Message rules key on the protocol message type, internal rules on the
/// internal event kind (the same axes the independence analysis uses).
struct RuleKey {
  std::uint32_t node = 0;
  std::uint8_t is_message = 0;
  std::uint32_t kind = 0;

  bool operator==(const RuleKey&) const = default;
  bool operator<(const RuleKey& o) const;
};

/// Cost ledger of one handler rule. runs/cached/ser_bytes/hash_bytes are
/// identity; `time` is attribution.
struct RuleProf {
  std::uint64_t runs = 0;        ///< uncached handler executions
  std::uint64_t cached = 0;      ///< cached replays applied
  std::uint64_t ser_bytes = 0;   ///< result-state + sent-payload bytes
  std::uint64_t hash_bytes = 0;  ///< result-state bytes hashed
  TimeHist time;                 ///< handler wall time (attribution)
};

class ProfileSink {
 public:
  ProfileSink();

  // ---- deterministic-thread accumulation -------------------------------
  void count(Counter c, std::uint64_t delta = 1);
  /// Per-shard ExecCache attribution for one authoritative lookup.
  void count_shard(std::size_t shard, bool hit);
  /// One applied handler execution of `key`.
  void rule(const RuleKey& key, bool cached, std::uint64_t ser_bytes,
            std::uint64_t hash_bytes, double exec_s);
  /// Accumulate wall seconds into a phase bucket (attribution).
  void phase_wall(Phase p, double secs);
  /// Record the run's cumulative elapsed seconds (set-latest, not summed:
  /// resumed segments report a cumulative figure).
  void run_wall(double elapsed_s);
  /// Note the configured thread count (reports want it; not identity).
  void note_threads(unsigned n) { threads_ = n; }

  // ---- worker-lane accumulation ----------------------------------------
  /// Bump a counter from a pool worker: goes to the calling thread's lane
  /// slab. Owner-only writes — no lock after the lane is registered.
  void count_worker(Counter c, std::uint64_t delta = 1);
  /// Attribute wall seconds to a phase from a pool worker.
  void time_worker(Phase p, double secs);
  /// Fold all lane slabs into the master slab. Must be called from the
  /// deterministic thread while workers are idle (after the fan-out
  /// returned) — the same points where the trace sink drains.
  void drain_workers();

  // ---- inspection ------------------------------------------------------
  std::uint64_t counter(Counter c) const;
  std::uint64_t shard_hits(std::size_t shard) const;
  std::uint64_t shard_misses(std::size_t shard) const;
  const std::map<RuleKey, RuleProf>& rules() const { return rules_; }
  double phase_seconds(Phase p) const;
  double run_seconds() const { return run_wall_s_; }
  unsigned threads() const { return threads_; }
  std::size_t lanes() const;

  void clear();

  /// Canonical rendering of the identity aggregates — every counter (in
  /// enum order), every shard's hits/misses, every rule's identity fields
  /// (sorted by key). Byte-identical at any thread count; excludes all
  /// wall-clock attribution. tests/test_obs.cpp compares these bytes.
  std::string identity_text() const;

  /// Serialize as "lmc-prof/1" JSON lines (meta, counter, shard, rule and
  /// phase records — see DESIGN.md §15).
  std::string to_jsonl() const;
  void write_jsonl(const std::string& path) const;

 private:
  /// One accumulation slab: the master and each worker lane own one.
  struct Slab {
    std::uint64_t counters[static_cast<std::size_t>(Counter::kCount)] = {};
    std::uint64_t shard_hits[kProfShards] = {};
    std::uint64_t shard_misses[kProfShards] = {};
    double phase_s[7] = {};  ///< indexed by Phase
  };
  struct Lane {
    Slab slab;
  };
  Lane* this_thread_lane();

  std::uint64_t uid_;  ///< process-unique; keys the thread-local lane cache
  unsigned threads_ = 0;
  double run_wall_s_ = 0.0;
  Slab master_;
  std::map<RuleKey, RuleProf> rules_;  ///< deterministic-thread only
  mutable std::mutex lanes_mu_;  ///< guards lane registration/growth only
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Parsed/merged form of one or more lmc-prof/1 streams (lmc_report and the
/// Chrome exporter consume this). Merging sums identity fields and phase
/// seconds; run wall and threads take the maximum seen.
struct ProfileData {
  unsigned threads = 0;
  double run_wall_s = 0.0;
  std::uint64_t counters[static_cast<std::size_t>(Counter::kCount)] = {};
  std::uint64_t shard_hits[kProfShards] = {};
  std::uint64_t shard_misses[kProfShards] = {};
  double phase_s[7] = {};

  struct Rule {
    RuleKey key;
    std::uint64_t runs = 0, cached = 0, ser_bytes = 0, hash_bytes = 0;
    double exec_s = 0.0;
    std::uint64_t samples = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> hist;  ///< (bucket, count)
  };
  std::map<RuleKey, Rule> rules;

  std::size_t lines = 0;  ///< lmc-prof/1 lines merged in
};

/// Merge one JSONL line into `data`. Returns false for anything that is not
/// an lmc-prof/1 line (mixed files are tolerated, like the trace parser).
bool merge_prof_line(const std::string& line, ProfileData& data);

/// Structural validation of one parsed lmc-prof/1 object (lmc_report
/// --validate). `err` gets a human-readable reason on failure.
bool validate_prof_value(const struct JsonValue& v, std::string* err);

}  // namespace lmc::obs

/// Hot-path guard: evaluates `call` (a member call on the sink) only when a
/// sink is attached. `sink` must be a ProfileSink*.
#define LMC_PROF(sink, call)             \
  do {                                   \
    if ((sink) != nullptr) (sink)->call; \
  } while (0)
