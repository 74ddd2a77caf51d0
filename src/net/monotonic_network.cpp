#include "net/monotonic_network.hpp"

namespace lmc {

bool MonotonicNetwork::add(Message m) {
  Hash64 h = m.hash();
  if (index_.count(h)) {
    ++suppressed_;
    return false;
  }
  index_.emplace(h, entries_.size());
  entries_.push_back(Entry{std::move(m), h, 0});
  return true;
}

MonotonicNetwork MonotonicNetwork::restore(std::vector<Entry> entries, std::uint64_t suppressed) {
  MonotonicNetwork net;
  for (Entry& e : entries) {
    net.index_.emplace(e.hash, net.entries_.size());
    net.entries_.push_back(std::move(e));
  }
  net.suppressed_ = suppressed;
  return net;
}

const Message* MonotonicNetwork::find(Hash64 h) const {
  auto it = index_.find(h);
  if (it == index_.end()) return nullptr;
  return &entries_[it->second].msg;
}

std::vector<Hash64> MonotonicNetwork::all_hashes() const {
  std::vector<Hash64> v;
  v.reserve(entries_.size());
  for (std::uint64_t i = 0; i < entries_.size(); ++i) v.push_back(entries_[i].hash);
  return v;
}

std::size_t MonotonicNetwork::bytes() const {
  std::size_t b = entries_.size() * (sizeof(Entry) + sizeof(Hash64) + 2 * sizeof(std::size_t));
  for (std::uint64_t i = 0; i < entries_.size(); ++i) b += entries_[i].msg.payload.capacity();
  return b;
}

}  // namespace lmc
