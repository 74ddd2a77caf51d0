// Minimal, deterministic byte serialization.
//
// MaceMC relied on Mace's auto-generated (de)serialization of service state;
// this Writer/Reader pair is our hand-rolled equivalent. Determinism matters:
// state identity (dedup, predecessor pointers, soundness hashes) is the hash
// of these bytes, so equal logical states must serialize identically.
// All integers are little-endian fixed width; containers are length-prefixed.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/types.hpp"

namespace lmc {

/// Thrown by Reader on malformed/truncated input.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Starts with room for `reserve` bytes, e.g. the size of the state the
  /// written one succeeds, so that a typical write never reallocates.
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(const Blob& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Raw append without a length prefix (caller knows the framing).
  void raw(const std::uint8_t* p, std::size_t n) { buf_.insert(buf_.end(), p, p + n); }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& per_element) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) per_element(*this, e);
  }

  const Blob& data() const { return buf_; }
  Blob take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  // One resize per word; the byte stores at fixed offsets compile to a
  // single store on little-endian hosts.
  template <typename T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::uint8_t* p = buf_.data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  Blob buf_;
};

/// Consumes values from a byte buffer; throws SerializeError on underflow.
class Reader {
 public:
  explicit Reader(const Blob& b) : p_(b.data()), end_(b.data() + b.size()) {}
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  bool b() { return u8() != 0; }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(get_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  Blob bytes() {
    std::uint32_t n = u32();
    need(n);
    Blob b(p_, p_ + n);
    p_ += n;
    return b;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& per_element) {
    std::uint32_t n = u32();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(per_element(*this));
    return v;
  }

  bool exhausted() const { return p_ == end_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  /// Asserts the buffer was fully consumed (catches schema drift early).
  void expect_exhausted() const {
    if (!exhausted()) throw SerializeError("trailing bytes after deserialization");
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw SerializeError("buffer underflow");
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(*p_++) << (8 * i));
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- container helpers used by the protocols ------------------------------

inline void write_u32_set(Writer& w, const std::set<std::uint32_t>& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (std::uint32_t v : s) w.u32(v);
}

inline std::set<std::uint32_t> read_u32_set(Reader& r) {
  std::uint32_t n = r.u32();
  std::set<std::uint32_t> s;
  for (std::uint32_t i = 0; i < n; ++i) s.insert(r.u32());
  return s;
}

inline void write_u64_vec(Writer& w, const std::vector<std::uint64_t>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (std::uint64_t x : v) w.u64(x);
}

inline std::vector<std::uint64_t> read_u64_vec(Reader& r) {
  std::uint32_t n = r.u32();
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.u64());
  return v;
}

}  // namespace lmc
