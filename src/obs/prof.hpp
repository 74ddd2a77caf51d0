// Per-rule profiling (observability layer, DESIGN.md §15).
//
// A ProfileSink keeps what no other record of a run holds: per handler rule
// (node × message type / internal event kind) a run/byte ledger plus a
// log-bucketed wall-time histogram. It also folds in the LocalMcStats of
// every run it was attached to, so its phase rows are the checker's own
// numbers rather than a second bookkeeping of them.
//
// Every write comes from the checker's applier thread — rule() as each
// handler execution is applied, add_run() when a run ends — so the sink
// needs no locks or worker lanes. The ledger's counts are a pure function
// of the exploration; identity_text() renders them with the summed stats
// (attribution fields cleared), byte-identical at 1 vs N threads. Wall
// seconds and histograms are ATTRIBUTION: they depend on the machine and
// are excluded from identity (the trace layer's identity/attribution
// split). The sink is runtime-only state — it is never serialized into
// checkpoints, so normalized checkpoint bytes are identical with profiling
// on or off (tests/test_obs.cpp pins both obligations).
//
// Cost contract: profiling is compiled in but off by default. Call sites
// are guarded by the LMC_PROF macro below — a null-pointer test is the
// whole disabled-path cost, and no allocation happens when off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mc/stats.hpp"

namespace lmc::obs {

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

/// Cost ledger of one handler rule. runs/ser_bytes/hash_bytes are
/// identity; `time` is attribution.
struct RuleProf {
  std::uint64_t runs = 0;        ///< handler executions applied
  std::uint64_t ser_bytes = 0;   ///< result-state + sent-payload bytes
  std::uint64_t hash_bytes = 0;  ///< result-state bytes hashed
  TimeHist time;                 ///< handler wall time (attribution)
};

class ProfileSink {
 public:
  /// One applied handler execution of `key`.
  void rule(const RuleKey& key, std::uint64_t ser_bytes, std::uint64_t hash_bytes,
            double exec_s);
  /// Fold the stats of a finished run into the profile (merge_stats).
  void add_run(const LocalMcStats& stats, unsigned threads);

  const std::map<RuleKey, RuleProf>& rules() const { return rules_; }
  /// The folded stats of every run added so far.
  const LocalMcStats& stats() const { return stats_; }

  /// Canonical rendering of the identity aggregates: every stat with the
  /// attribution fields cleared (as normalized checkpoints clear them), then
  /// every rule's identity fields, sorted by key. Byte-identical at any
  /// thread count; excludes all wall-clock attribution.
  std::string identity_text() const;

  /// Serialize as "lmc-prof/2" JSON lines: one meta line, one stat line per
  /// LocalMcStats field, one rule line per rule (DESIGN.md §15).
  std::string to_jsonl() const;
  void write_jsonl(const std::string& path) const;

 private:
  std::map<RuleKey, RuleProf> rules_;
  LocalMcStats stats_ = stats_fold_start();
  std::uint64_t runs_ = 0;
  unsigned threads_ = 0;  ///< largest of the runs added (reports want it; not identity)
};

/// Parsed/merged form of one or more lmc-prof/2 streams (lmc_report and the
/// Chrome exporter consume this). Merging sums the rule ledgers and runs,
/// folds the stats with merge_stats, and keeps the largest thread count.
struct ProfileData {
  unsigned threads = 0;
  std::uint64_t runs = 0;
  LocalMcStats stats = stats_fold_start();

  struct Rule {
    RuleKey key;
    std::uint64_t runs = 0, ser_bytes = 0, hash_bytes = 0;
    double exec_s = 0.0;
    std::uint64_t samples = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> hist;  ///< (bucket, count)
  };
  std::map<RuleKey, Rule> rules;

  std::size_t lines = 0;  ///< lmc-prof/2 lines merged in
};

/// Every stat of `s` as (name, JSON number) pairs, in table order: doubles
/// round-trip via %.17g, flags and gauges are integers.
std::vector<std::pair<std::string, std::string>> stat_json_fields(const LocalMcStats& s);

/// Merge one JSONL line into `data`. Returns false for anything that is not
/// an lmc-prof/2 line (mixed files are tolerated, like the trace parser).
bool merge_prof_line(const std::string& line, ProfileData& data);

/// Structural validation of one parsed lmc-prof/2 object (lmc_report
/// --validate). `err` gets a human-readable reason on failure.
bool validate_prof_value(const struct JsonValue& v, std::string* err);

}  // namespace lmc::obs

/// Hot-path guard: evaluates `call` (a member call on the sink) only when a
/// sink is attached. `sink` must be a ProfileSink*.
#define LMC_PROF(sink, call)             \
  do {                                   \
    if ((sink) != nullptr) (sink)->call; \
  } while (0)
