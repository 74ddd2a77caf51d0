#include "persist/exec_cache.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "persist/checkpoint.hpp"

namespace lmc {

namespace {

constexpr std::size_t kMagicLen = sizeof(kExecCacheMagic);
// magic | u32 version | u32 reserved | u64 entry count
constexpr std::size_t kHeaderLen = kMagicLen + 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

[[noreturn]] void fail(const std::string& what) { throw CheckpointError("exec cache: " + what); }

void check(bool ok, const char* what) {
  if (!ok) fail(what);
}

}  // namespace

bool ExecCache::lookup(Hash64 ev, Hash64 state, ExecResult& out) const {
  const Key k{ev, state};
  Shard& s = shards_[shard_of(k)];
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.young.find(k);
  if (it == s.young.end()) {
    it = s.old.find(k);
    if (it == s.old.end()) return false;
  }
  out = it->second;
  return true;
}

bool ExecCache::peek(Hash64 ev, Hash64 state) const {
  const Key k{ev, state};
  Shard& s = shards_[shard_of(k)];
  std::lock_guard<std::mutex> lk(s.mu);
  return s.young.count(k) != 0 || s.old.count(k) != 0;
}

void ExecCache::rotate_locked_all() {
  std::unique_lock<std::mutex> locks[kShards];
  for (std::size_t i = 0; i < kShards; ++i)
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  // Re-check under the full lock set: a racing inserter may have rotated
  // while we were acquiring.
  if (young_count_.load(std::memory_order_relaxed) < half()) return;
  for (Shard& s : shards_) {
    s.old = std::move(s.young);
    s.young.clear();
  }
  young_count_.store(0, std::memory_order_relaxed);
}

void ExecCache::insert(Hash64 ev, Hash64 state, const ExecResult& r) {
  const Key k{ev, state};
  Shard& s = shards_[shard_of(k)];
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.young.count(k) != 0 || s.old.count(k) != 0) return;  // first insert wins
    if (young_count_.load(std::memory_order_relaxed) < half()) {
      s.young.emplace(k, r);
      young_count_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // The young generation is full: rotate (needs every shard lock, so our
  // shard lock was released first), then insert into the fresh generation.
  rotate_locked_all();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.young.count(k) != 0 || s.old.count(k) != 0) return;
  s.young.emplace(k, r);
  young_count_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ExecCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.young.size() + s.old.size();
  }
  return n;
}

Blob ExecCache::encode() const {
  std::unique_lock<std::mutex> locks[kShards];
  for (std::size_t i = 0; i < kShards; ++i)
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  std::vector<const std::pair<const Key, ExecResult>*> sorted;
  for (const Shard& s : shards_) {
    for (const auto& kv : s.young) sorted.push_back(&kv);
    for (const auto& kv : s.old) sorted.push_back(&kv);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return a->first.ev != b->first.ev ? a->first.ev < b->first.ev
                                      : a->first.state < b->first.state;
  });
  Writer w;
  w.raw(reinterpret_cast<const std::uint8_t*>(kExecCacheMagic), kMagicLen);
  w.u32(kExecCacheVersion);
  w.u32(0);  // reserved
  w.u64(sorted.size());
  for (const auto* kv : sorted) {
    w.u64(kv->first.ev);
    w.u64(kv->first.state);
    const ExecResult& r = kv->second;
    w.bytes(r.state);
    w.vec(r.sent, [](Writer& ww, const Message& m) { m.serialize(ww); });
    w.b(r.assert_failed);
    w.str(r.assert_msg);
  }
  Blob out = std::move(w).take();
  const Hash64 sum = hash_bytes(out.data(), out.size());
  Writer tail;
  tail.u64(sum);
  out.insert(out.end(), tail.data().begin(), tail.data().end());
  return out;
}

void ExecCache::decode(const Blob& data) {
  check(data.size() >= kHeaderLen + sizeof(std::uint64_t), "file too small");
  check(std::memcmp(data.data(), kExecCacheMagic, kMagicLen) == 0,
        "bad magic (not an exec cache file)");
  const std::size_t body_len = data.size() - sizeof(std::uint64_t);
  Reader tail(data.data() + body_len, sizeof(std::uint64_t));
  check(hash_bytes(data.data(), body_len) == tail.u64(),
        "checksum mismatch (truncated or corrupted file)");

  Map map;
  try {
    Reader r(data.data(), body_len);
    r.u64();  // magic (already compared)
    check(r.u32() == kExecCacheVersion, "unsupported format version");
    r.u32();  // reserved
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      Key k;
      k.ev = r.u64();
      k.state = r.u64();
      ExecResult res;
      res.state = r.bytes();
      res.sent = r.vec<Message>([](Reader& rr) { return Message::deserialize(rr); });
      res.assert_failed = r.b();
      res.assert_msg = r.str();
      check(map.emplace(k, std::move(res)).second, "duplicate cache key");
    }
    r.expect_exhausted();
  } catch (const SerializeError& e) {
    fail(std::string("malformed entry: ") + e.what());
  }

  // Loaded entries all land in the young generation: a load is a fresh
  // start, and they should survive at least one rotation of new inserts.
  std::unique_lock<std::mutex> locks[kShards];
  for (std::size_t i = 0; i < kShards; ++i)
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  for (Shard& s : shards_) {
    s.young.clear();
    s.old.clear();
  }
  for (auto& kv : map) shards_[shard_of(kv.first)].young.emplace(kv.first, std::move(kv.second));
  young_count_.store(map.size(), std::memory_order_relaxed);
}

void ExecCache::save(const std::string& path) const { write_checkpoint_file(path, encode()); }

void ExecCache::load(const std::string& path) { decode(read_checkpoint_file(path)); }

}  // namespace lmc
