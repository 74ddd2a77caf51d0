// Shared data structures of the local model checker (§4.2).
//
// Per node n, LS_n holds every traversed local state of n. Following MaceMC,
// a state is its serialized blob plus its 64-bit hash; records live in an
// append-only deque (references stay valid across appends) with a hash →
// index map beside it. Only the applier writes either; phase-1 handlers
// read records between its writes, never during them (DESIGN.md §12).
// Each record carries:
//  * predecessors — all (previous state, event) pairs that produced it,
//    with the hashes of the messages that execution generated (these are
//    exactly what soundness verification needs, §4.2);
//  * history — hashes of messages already delivered along the chain, so a
//    message is never redundantly re-executed on a descendant (§4.2
//    "Duplicate messages" rules (i)/(ii)).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/hash_index.hpp"
#include "runtime/message.hpp"
#include "runtime/types.hpp"

namespace lmc {

/// One incoming edge of a node state.
struct Pred {
  std::uint32_t pred_idx = 0;     ///< index (within the same node) of the source state
  bool is_message = false;        ///< network event vs internal event
  Hash64 ev_hash = 0;             ///< message content hash / internal event hash
  std::vector<Hash64> gen;        ///< hashes of messages generated by this execution
};

struct NodeStateRec {
  Blob blob;
  Hash64 hash = 0;
  std::uint32_t depth = 0;        ///< chain length: events executed on this node
  std::vector<Pred> preds;
  /// Transitions that left the state unchanged but generated messages
  /// (e.g. a relay forwarding without bookkeeping). The paper ignores these
  /// self-references, accepting incompleteness (§4.2); we record them and
  /// let the soundness scheduler fire them when it is otherwise stuck, so
  /// states whose reachability depends on no-op relays still verify.
  std::vector<Pred> self_loops;
  std::vector<Hash64> history;    ///< sorted delivered-message hashes
};

/// The actual event contents, keyed by event hash — predecessor pointers
/// store only hashes (paper §4.2); the table lets the replay validator turn
/// a confirmed schedule back into real executions.
struct EventRecord {
  bool is_message = false;
  NodeId node = 0;        ///< executing node (internal events)
  Message msg;            ///< when is_message
  InternalEvent ev;       ///< when !is_message
};
using EventTable = std::unordered_map<Hash64, EventRecord>;

/// One step of a feasible total order found by soundness verification.
struct ScheduleStep {
  NodeId node = 0;
  bool is_message = false;
  Hash64 ev_hash = 0;
};
using Schedule = std::vector<ScheduleStep>;

/// The live (or initial) snapshot a run explores from. Each node's snapshot
/// state is the first state added to its store, LS_n[0], so every soundness
/// schedule starts there.
struct StartSnapshot {
  std::vector<Blob> nodes;               ///< per node: serialized snapshot state
  std::vector<Message> in_flight;        ///< the snapshot's in-flight messages
  std::vector<Hash64> in_flight_hashes;  ///< their hashes (soundness seed)
};

/// A (preliminary or confirmed) invariant violation on a system state.
struct LocalViolation {
  std::vector<std::uint32_t> combo;   ///< per node: index into LS_n
  std::vector<Hash64> state_hashes;   ///< per node: state hash
  std::vector<Blob> system_state;     ///< per node: serialized state
  std::string invariant;
  bool confirmed = false;             ///< passed soundness verification
  Schedule witness;                   ///< feasible total order (if confirmed)
};

/// The LS sets for all nodes: per node, an append-only deque of records and
/// a hash index over it.
class LocalStore {
 public:
  explicit LocalStore(std::uint32_t num_nodes) : states_(num_nodes), index_(num_nodes) {}

  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(states_.size()); }
  std::uint32_t size(NodeId n) const { return static_cast<std::uint32_t>(states_[n].size()); }

  const NodeStateRec& rec(NodeId n, std::uint32_t idx) const { return states_[n][idx]; }
  NodeStateRec& rec(NodeId n, std::uint32_t idx) { return states_[n][idx]; }

  /// Index of the state with hash h, or UINT32_MAX.
  std::uint32_t find(NodeId n, Hash64 h) const { return index_[n].find(h); }

  /// Append r unless LS_n already holds a state with its hash. Returns the
  /// index of the state with that hash, so a return other than the old
  /// size(n) flags a duplicate (and r is dropped).
  std::uint32_t add(NodeId n, NodeStateRec r) {
    const std::uint32_t idx = size(n);
    const std::uint32_t got = index_[n].insert_if_absent(r.hash, idx);
    if (got == idx) states_[n].push_back(std::move(r));
    return got;
  }

  std::uint64_t total_states() const {
    std::uint64_t t = 0;
    for (const auto& d : states_) t += d.size();
    return t;
  }

  /// Approximate heap footprint (Fig. 12 accounting): state_bytes() summed
  /// over every record.
  std::size_t bytes() const {
    std::size_t b = 0;
    for (const auto& d : states_)
      for (const NodeStateRec& r : d) b += state_bytes(r);
    return b;
  }
  /// One edge's share of bytes(), fixed when the edge is recorded.
  static std::size_t edge_bytes(const Pred& p) {
    return sizeof(Pred) + p.gen.capacity() * sizeof(Hash64);
  }
  /// One record's share of bytes(): the record with its edges so far, and
  /// its hash index slot (an estimate kept stable across versions).
  static std::size_t state_bytes(const NodeStateRec& r) {
    std::size_t b = sizeof(NodeStateRec) + r.blob.capacity() +
                    r.history.capacity() * sizeof(Hash64) + 24;
    for (const Pred& p : r.preds) b += edge_bytes(p);
    for (const Pred& p : r.self_loops) b += edge_bytes(p);
    return b;
  }

 private:
  std::vector<std::deque<NodeStateRec>> states_;
  std::vector<HashIndex> index_;
};

}  // namespace lmc
