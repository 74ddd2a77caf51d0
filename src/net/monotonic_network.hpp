// The shared monotonic network `I+` (§4, Fig. 7/8).
//
// Every message generated by any transition during local model checking is
// appended here and NEVER removed: a message must remain deliverable to node
// states discovered later, which is what makes the local search complete.
// This is the paper's monotonic abstraction of the network (§6, Dolev-Yao
// style "maximal knowledge").
//
// Two §4.2 implementation details live here:
//  * duplicate suppression by content hash (duplicate-message limit = 0),
//    through a hash → entry index;
//  * a per-message cursor recording how many states of the destination node
//    the message has already been executed on, so each round only touches
//    newly added states.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "runtime/hash.hpp"
#include "runtime/hash_index.hpp"
#include "runtime/message.hpp"

namespace lmc {

class MonotonicNetwork {
 public:
  struct Entry {
    Message msg;
    Hash64 hash = 0;
    /// Index of the next state of msg.dst this message must be tried on.
    std::size_t next_state = 0;
  };

  /// Append a copy of `m`, whose hash `h` must be m.hash(); returns false
  /// (and counts a suppression, copying nothing) if a message with identical
  /// content was already added at any point in the search. The hash is an
  /// argument so that it is computed once, where the message was produced
  /// (a phase-1 pool lane), and the table's owner only looks it up.
  bool add(const Message& m, Hash64 h);

  /// Rebuild a network from checkpointed entries: the hash index is
  /// reconstructed, per-message cursors are taken from the entries.
  static MonotonicNetwork restore(std::vector<Entry> entries, std::uint64_t suppressed);

  /// Copy of all entries in insertion order (checkpointing, tests).
  std::vector<Entry> snapshot_entries() const { return {entries_.begin(), entries_.end()}; }

  std::size_t size() const { return entries_.size(); }
  /// Entries never move: a reference stays valid across later add()s.
  Entry& at(std::size_t i) { return entries_[i]; }
  const Entry& at(std::size_t i) const { return entries_[i]; }

  bool contains(Hash64 h) const { return index_.contains(h); }
  std::uint64_t suppressed() const { return suppressed_; }

  /// Hashes of every message ever added, in insertion order (the snapshot's
  /// distinct in-flight messages come first).
  std::vector<Hash64> all_hashes() const;

  /// Approximate heap footprint for Fig. 12 accounting: entry_bytes() summed
  /// over every entry.
  std::size_t bytes() const;
  /// One entry's share of bytes(), fixed when the entry is added.
  static std::size_t entry_bytes(const Entry& e) {
    return sizeof(Entry) + sizeof(Hash64) + 2 * sizeof(std::size_t) + e.msg.payload.capacity();
  }

 private:
  std::deque<Entry> entries_;
  HashIndex index_;  // hash -> entry position
  std::uint64_t suppressed_ = 0;
};

}  // namespace lmc
