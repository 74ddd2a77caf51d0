// Append-only segmented log with one producer (DESIGN.md §12).
//
// The work-stealing phase 1 needs `LS_n` records and `I+` entries to stay
// readable from pipeline workers WHILE the applier appends. A deque breaks
// that contract (push_back may allocate a new map block and touch internal
// bookkeeping racing readers); this log never moves or frees an element
// until destruction:
//
//  * storage is a chain of geometrically growing segments (segment k holds
//    64<<k elements), release-stored into a fixed directory of atomic
//    pointers — an element's address is stable for the log's lifetime;
//  * the one producer (the checker's applier) builds the element, then
//    release-stores the new size; readers on any thread access only indices
//    below `size()` (an acquire load), so every element they see is fully
//    constructed.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>

namespace lmc::concurrent {

template <typename T>
class SegLog {
 public:
  SegLog() = default;

  ~SegLog() { free_segments(); }

  // Copies and moves are for quiesced logs only (the checker copies stores
  // into checkpoint images and tests, never mid-round).
  SegLog(const SegLog& o) {
    for (std::uint64_t i = 0; i < o.size(); ++i) push_back(o[i]);
  }
  SegLog& operator=(const SegLog& o) {
    if (this != &o) *this = SegLog(o);
    return *this;
  }
  SegLog(SegLog&& o) noexcept { steal_from(o); }
  SegLog& operator=(SegLog&& o) noexcept {
    if (this != &o) {
      free_segments();
      steal_from(o);
    }
    return *this;
  }

  /// Producer-only. Appends and publishes one element; returns its index.
  std::uint64_t push_back(T value) {
    const std::uint64_t i = size_.load(std::memory_order_relaxed);
    const std::uint32_t k = segment_of(i);
    T* seg = segments_[k].load(std::memory_order_relaxed);
    if (seg == nullptr) {
      seg = new T[segment_capacity(k)];
      segments_[k].store(seg, std::memory_order_release);
    }
    seg[i - segment_base(k)] = std::move(value);
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  /// Number of published elements. Indices below this are safe to read
  /// from any thread.
  std::uint64_t size() const { return size_.load(std::memory_order_acquire); }

  bool empty() const { return size() == 0; }

  const T& operator[](std::uint64_t i) const { return *element(i); }

  /// Mutable access — callers must serialize writes to one element against
  /// its readers themselves (the checker only mutates fields the pipeline
  /// workers never read, e.g. I+ cursors).
  T& mut(std::uint64_t i) { return *element(i); }

 private:
  // Segment k holds 64<<k elements: [0,64) live in segment 0, [64,192) in
  // segment 1, ... 40 segments cover > 2^45 elements.
  static constexpr std::uint32_t kBaseShift = 6;
  static constexpr std::uint32_t kMaxSegments = 40;

  static std::uint32_t segment_of(std::uint64_t i) {
    return static_cast<std::uint32_t>(std::bit_width((i >> kBaseShift) + 1) - 1);
  }
  static std::uint64_t segment_base(std::uint32_t k) {
    return ((std::uint64_t{1} << k) - 1) << kBaseShift;
  }
  static std::uint64_t segment_capacity(std::uint32_t k) {
    return std::uint64_t{1} << (kBaseShift + k);
  }

  T* element(std::uint64_t i) const {
    const std::uint32_t k = segment_of(i);
    return segments_[k].load(std::memory_order_acquire) + (i - segment_base(k));
  }

  void free_segments() {
    for (auto& s : segments_) delete[] s.exchange(nullptr, std::memory_order_relaxed);
  }

  void steal_from(SegLog& o) {
    for (std::uint32_t k = 0; k < kMaxSegments; ++k)
      segments_[k].store(o.segments_[k].exchange(nullptr, std::memory_order_relaxed),
                         std::memory_order_relaxed);
    size_.store(o.size_.exchange(0, std::memory_order_relaxed), std::memory_order_relaxed);
  }

  std::array<std::atomic<T*>, kMaxSegments> segments_{};
  std::atomic<std::uint64_t> size_{0};
};

}  // namespace lmc::concurrent
