// Cross-restart transition cache (online warm start).
//
// Online checking restarts the local model checker from a fresh live
// snapshot every period. Consecutive snapshots change slowly, so the
// closures those restarts explore overlap heavily — and exec_message /
// exec_internal are deterministic functions of (event, serialized state).
// Memoizing their results by (event hash, state hash) lets a warm restart
// skip every handler execution any earlier period already performed while
// keeping the exploration bit-identical to a cold restart: same node
// states, same combinations, same soundness verdicts, same bugs — only the
// duplicated handler work disappears (counted in stats.warm_pairs_skipped).
// Under a wall-clock budget the exploration ORDER is still identical; the
// warm run just gets further per period, because replaying a pair is much
// cheaper than executing it — it can only ever cover more, never less.
//
// Why memoize instead of merging each snapshot into one persistent checker?
// A merge unions the snapshots' closures: every snapshot's messages become
// deliverable to every snapshot's states, a cross-product no cold restart
// pays — a merging checker measured ~2-4x MORE transitions than restarting
// per snapshot on the §5.5 workload, and was removed. The cache keeps each
// period's search space exactly the cold one and removes only true re-work.
//
// The map is sharded 16 ways by key hash so the phase-1 pool lanes of a
// chunk can `peek()` concurrently without a single hot mutex (DESIGN.md
// §12). Peeks do not overlap the applier's authoritative `lookup()` and
// `insert()`, which run after the chunk's fan-out; the shard locks stay, so
// every method remains safe to call from any thread. The cache keeps no
// hit/miss counters: the checker's stats already count every
// replay (warm_pairs_skipped) and every execution (transitions).
//
// The cache serializes with the same discipline as checkpoints (magic,
// version, canonical entry order, trailing whole-file checksum, atomic
// write), so warm starts can survive process restarts.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/hash.hpp"
#include "runtime/state_machine.hpp"

namespace lmc {

inline constexpr char kExecCacheMagic[8] = {'L', 'M', 'C', 'E', 'X', 'E', 'C', '\n'};
inline constexpr std::uint32_t kExecCacheVersion = 1;

class ExecCache {
 public:
  /// Cap on total stored entries across both generations (see below).
  static constexpr std::size_t kDefaultMaxEntries = std::size_t{1} << 21;

  explicit ExecCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  /// True (and fills `out`) if (ev, state) was executed before. Thread-safe.
  /// The applier's authoritative path.
  bool lookup(Hash64 ev, Hash64 state, ExecResult& out) const;

  /// Presence check without result extraction: the speculative probe of
  /// the pool lane that executes a task. A true return may go stale by the
  /// time the applier applies the task (generation rotation) — the applier
  /// re-executes in that case; a false return is always safe (the lane
  /// executed).
  bool peek(Hash64 ev, Hash64 state) const;

  void insert(Hash64 ev, Hash64 state, const ExecResult& r);

  std::size_t size() const;

  /// Canonical serialization (entries sorted by key); decode verifies the
  /// trailing checksum first and throws CheckpointError on any corruption.
  Blob encode() const;
  void decode(const Blob& data);  ///< replaces the current contents
  void save(const std::string& path) const;  ///< atomic (tmp + rename)
  void load(const std::string& path);

 private:
  struct Key {
    Hash64 ev = 0;
    Hash64 state = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t x = k.ev + 0x9e3779b97f4a7c15ull * k.state;
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }
  };

  using Map = std::unordered_map<Key, ExecResult, KeyHash>;

  static constexpr std::size_t kShards = 16;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    Map young;
    Map old;
  };

  static std::size_t shard_of(const Key& k) { return KeyHash{}(k) & (kShards - 1); }

  std::size_t half() const { return max_entries_ / 2 > 0 ? max_entries_ / 2 : 1; }

  /// Rotate under ALL shard locks (taken in index order; the caller holds
  /// none): young becomes old globally, the previous old generation drops.
  void rotate_locked_all();

  // Eviction is generational, not insert-until-full. A budget-truncated
  // checker round executes (and therefore inserts) far more pairs than it
  // applies — a single period can flood the cap many times over, and with
  // insert-until-full the FIRST period's flood permanently starves every
  // later period, which is exactly backwards: cross-period reuse comes from
  // the MOST RECENT period's entries. Inserts go to the young generation;
  // when it reaches half the cap (summed across shards) it becomes old
  // (dropping the previous old generation) — so the newest half-cap of
  // entries always survives into the next period. Lookups never mutate the
  // maps (no hit promotion: a period draining hits out of the old
  // generation must not trigger the rotation that would destroy it). Keys
  // are disjoint between the generations.
  std::size_t max_entries_;
  std::atomic<std::uint64_t> young_count_{0};
  mutable Shard shards_[kShards];
};

}  // namespace lmc
