// Persistent exploration store (checkpoint/resume).
//
// The local model checker's entire state is monotonic: LS_n and I+ only
// grow, predecessor pointers and event records are append-only. That makes
// the checker trivially checkpointable — a snapshot of the stores IS a
// resumable search, no in-flight stack to unwind. This header defines the
// on-disk format (see FORMAT.md next to this file) and the codec between a
// checkpoint blob and a `CheckerImage`, the passive mirror of every field
// `LocalModelChecker` needs to continue a run exactly where it stopped.
//
// Format invariants:
//  * magic + version + trailing whole-file checksum (hash_bytes) — a
//    truncated, bit-flipped or foreign file is rejected before any field
//    is interpreted;
//  * sections are length-prefixed and independently decodable; unknown
//    section ids are ignored on read (forward compatibility);
//  * encoding is canonical (unordered containers are sorted), so
//    decode→encode reproduces the input byte for byte — the round-trip
//    property the tests pin down.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mc/local_store.hpp"
#include "mc/stats.hpp"
#include "net/monotonic_network.hpp"
#include "runtime/serialize.hpp"

namespace lmc {

/// Thrown on any malformed, corrupted or incompatible checkpoint.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kCheckpointMagic[8] = {'L', 'M', 'C', 'C', 'K', 'P', 'T', '\n'};
// Writers emit this version and readers accept only this version (layout and
// history in persist/FORMAT.md).
inline constexpr std::uint32_t kCheckpointVersion = 9;

/// Section ids of the container format. Ids are stable across versions;
/// readers skip ids they do not know.
enum SectionId : std::uint32_t {
  kSecMeta = 1,         ///< summary counters (cheap inspection)
  kSecSnapshot = 2,     ///< the start snapshot (node states, in-flight messages)
  kSecStore = 3,        ///< LS_n: every traversed node state + pred graph
  kSecNetwork = 4,      ///< I+: entries with per-message cursors
  kSecEvents = 5,       ///< event table (hash -> message/internal event)
  kSecFeasibility = 6,  ///< node_gens feasibility input
  kSecCursors = 7,      ///< per-node internal-event scan cursors
  kSecStats = 8,        ///< LocalMcStats as (name, value) pairs
  kSecDeferred = 9,     ///< phase-2 soundness queue
  kSecViolations = 10,  ///< violations recorded so far
  kSecPending = 11,     ///< collected-but-unapplied tasks of the stopped round
  kSecSegment = 12,     ///< trace segment id + base round (resume continuity)
  kSecSymmetry = 13,    ///< orbit seen-set (present iff symmetry active)
  kSecPor = 14,         ///< partial-order reduction (present iff POR active)
};

/// Assembles header | sections | checksum.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::uint32_t num_nodes) : num_nodes_(num_nodes) {}

  void add_section(std::uint32_t id, Blob payload) {
    sections_.emplace_back(id, std::move(payload));
  }

  Blob finish() &&;

 private:
  std::uint32_t num_nodes_;
  std::vector<std::pair<std::uint32_t, Blob>> sections_;
};

/// Validates the container (magic, version, checksum, section headers) and
/// hands out per-section Readers. Holds a pointer into the caller's blob —
/// the blob must outlive the reader.
class CheckpointReader {
 public:
  explicit CheckpointReader(const Blob& data);

  std::uint32_t version() const { return version_; }
  std::uint32_t num_nodes() const { return num_nodes_; }

  struct Section {
    std::uint32_t id = 0;
    std::size_t offset = 0;  ///< payload start within the blob
    std::size_t len = 0;
  };
  const std::vector<Section>& sections() const { return sections_; }

  bool has(std::uint32_t id) const;
  /// Reader over the section's payload; throws CheckpointError if absent.
  Reader open(std::uint32_t id) const;

 private:
  const Blob* data_;
  std::uint32_t version_ = 0;
  std::uint32_t num_nodes_ = 0;
  std::vector<Section> sections_;
};

/// A deferred soundness combination (mirror of the checker's phase-2 queue).
struct DeferredCombo {
  std::vector<std::uint32_t> combo;
  std::vector<std::uint8_t> fixed;
  bool has_mask = false;
  /// The combo is a canonical orbit representative; phase-2 must expand its
  /// class assignments when verifying.
  bool sym = false;
};

/// One non-reconstructible forward-map entry of the partial-order reduction
/// (kSecPor): the delivery of message `ev_hash` at state `pred_idx` was a
/// silent no-op (outcome 0), an assert-discard (outcome 1), or was itself
/// pruned (outcome 2) — outcomes that leave no trace in the pred graph but
/// justify (or block) later prunes, so a resumed run decides identically.
struct PorFwdEntry {
  std::uint32_t pred_idx = 0;
  Hash64 ev_hash = 0;
  std::uint8_t outcome = 0;
};

/// One collected-but-unapplied exploration task. Cursors advance when tasks
/// are collected, so a round interrupted by a budget stop must persist its
/// tail — resuming re-executes exactly these, in order, before collecting.
struct PendingTask {
  bool is_message = false;
  std::uint64_t net_idx = 0;  ///< message tasks: entry index in I+
  NodeId node = 0;
  std::uint32_t state_idx = 0;
};

/// Passive mirror of a `LocalModelChecker` mid-run: everything needed to
/// re-enter the round loop with cursors intact.
struct CheckerImage {
  std::uint32_t num_nodes = 0;
  LocalStore store{0};
  std::vector<MonotonicNetwork::Entry> net_entries;
  std::uint64_t net_suppressed = 0;
  EventTable events;
  StartSnapshot start;
  std::vector<std::vector<Hash64>> node_gens;  ///< per node, sorted
  std::vector<std::uint32_t> internal_scan;
  LocalMcStats stats;
  std::vector<DeferredCombo> deferred;
  std::vector<LocalViolation> violations;
  std::vector<PendingTask> pending;
  /// Trace-continuity stamps (kSecSegment): the id of the trace segment
  /// that wrote the checkpoint and its round counter, so a resumed run
  /// numbers its segment/rounds as a continuation instead of restarting at
  /// 0.
  std::uint64_t segment_id = 0;
  std::uint32_t base_round = 0;
  /// Orbit seen-set (kSecSymmetry): present only when the run that wrote
  /// the checkpoint had symmetry reduction active. `sym_seen` is the sorted
  /// orbit-hash seen-set; resuming with a different effective symmetry mode
  /// is rejected.
  bool has_symmetry = false;
  std::vector<Hash64> sym_seen;
  /// Partial-order reduction (kSecPor): present only when the writing
  /// run pruned with an independence relation. `por_digest` pins the
  /// relation the prune decisions were taken under (resuming under a
  /// different one is rejected); `por_entries` holds, per node and sorted
  /// by (pred_idx, ev_hash), the kNoop (0) / kDiscard (1) / kPruned (2)
  /// delivery outcomes that cannot be rebuilt from the pred graph.
  bool has_por = false;
  Hash64 por_digest = 0;
  std::vector<std::vector<PorFwdEntry>> por_entries;
  /// Message pairs the pruner deferred one generation whose retry had not
  /// happened when the checkpoint was taken (cursors already advanced past
  /// them, so losing them would lose exploration).
  std::vector<PendingTask> por_deferred;
};

/// Canonical encoding (sorted unordered containers; stable section order).
Blob encode_checkpoint(const CheckerImage& img);

/// Full decode with structural validation: every index bound-checked, every
/// stored hash recomputed and compared. Throws CheckpointError with a
/// message naming the offending section/field.
CheckerImage decode_checkpoint(const Blob& data);

/// Cheap header + meta/stats inspection (does not decode the heavy
/// sections).
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::uint32_t num_nodes = 0;
  std::vector<CheckpointReader::Section> sections;
  // From kSecMeta:
  std::uint64_t total_states = 0;
  std::vector<std::uint64_t> states_per_node;
  std::uint64_t net_size = 0;
  std::uint64_t event_count = 0;
  std::uint64_t pending_tasks = 0;
  // From kSecStats:
  LocalMcStats stats;
  // From kSecSegment (0/0 for straight runs):
  std::uint64_t segment_id = 0;
  std::uint32_t base_round = 0;
  // From kSecSymmetry (absent unless the writing run had the reduction on):
  bool has_symmetry = false;
  std::uint64_t sym_seen = 0;
  // From kSecPor (absent unless the writing run had the reduction on):
  bool has_por = false;
  Hash64 por_digest = 0;
  std::uint64_t por_entries = 0;   ///< persisted kNoop/kDiscard/kPruned records
  std::uint64_t por_deferred = 0;  ///< deferred pairs awaiting their retry
};
CheckpointInfo inspect_checkpoint(const Blob& data);

/// Atomic file write (tmp + rename) / whole-file read. Throw CheckpointError
/// on I/O failure.
void write_checkpoint_file(const std::string& path, const Blob& data);
Blob read_checkpoint_file(const std::string& path);

}  // namespace lmc
