// Hash → index map for the checker's single-writer tables (DESIGN.md §12):
// each node's LS_n index, the I+ dedup index and the symmetry orbit
// seen-set.
//
// Open addressing with linear probing over a power-of-two table that
// doubles, rehashing every entry, once an insert would fill it past 70%.
// Keys are 64-bit content hashes, already well mixed, so a key's low bits
// pick its home slot. A slot is empty iff its value is kNotFound; values
// index append-only logs and never reach it.
//
// One thread writes. Another thread may read only while the writer is known
// to be idle (the checker's applier waits while its symmetry expansions read
// a store index); there is no lock-free reader contract.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/types.hpp"

namespace lmc {

class HashIndex {
 public:
  static constexpr std::uint32_t kNotFound = UINT32_MAX;

  /// The value stored for `key`, or kNotFound.
  std::uint32_t find(Hash64 key) const {
    return slots_.empty() ? kNotFound : slots_[probe(key)].value;
  }

  bool contains(Hash64 key) const { return find(key) != kNotFound; }

  /// Map key → value unless the key is present. Returns the value now
  /// stored for the key, so a return other than `value` flags a duplicate.
  std::uint32_t insert_if_absent(Hash64 key, std::uint32_t value) {
    if ((size_ + 1) * 10 > slots_.size() * 7) grow();
    Slot& s = slots_[probe(key)];
    if (s.value != kNotFound) return s.value;
    s = Slot{key, value};
    ++size_;
    return value;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  struct Slot {
    Hash64 key = 0;
    std::uint32_t value = kNotFound;
  };

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t probe(Hash64 key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = key & mask;
    while (slots_[i].value != kNotFound && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(std::max(kMinCapacity, slots_.size() * 2));
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.value != kNotFound) slots_[probe(s.key)] = s;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace lmc
