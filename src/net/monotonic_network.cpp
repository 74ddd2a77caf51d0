#include "net/monotonic_network.hpp"

namespace lmc {

bool MonotonicNetwork::add(const Message& m, Hash64 h) {
  const auto next = static_cast<std::uint32_t>(entries_.size());
  if (index_.insert_if_absent(h, next) != next) {
    ++suppressed_;
    return false;
  }
  entries_.push_back(Entry{m, h, 0});
  return true;
}

MonotonicNetwork MonotonicNetwork::restore(std::vector<Entry> entries, std::uint64_t suppressed) {
  MonotonicNetwork net;
  for (Entry& e : entries) {
    net.index_.insert_if_absent(e.hash, static_cast<std::uint32_t>(net.entries_.size()));
    net.entries_.push_back(std::move(e));
  }
  net.suppressed_ = suppressed;
  return net;
}

std::vector<Hash64> MonotonicNetwork::all_hashes() const {
  std::vector<Hash64> v;
  v.reserve(entries_.size());
  for (const Entry& e : entries_) v.push_back(e.hash);
  return v;
}

std::size_t MonotonicNetwork::bytes() const {
  std::size_t b = 0;
  for (const Entry& e : entries_) b += entry_bytes(e);
  return b;
}

}  // namespace lmc
