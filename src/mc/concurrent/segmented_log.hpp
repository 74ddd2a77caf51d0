// Append-only segmented log with atomic tail reservation (DESIGN.md §12).
//
// The work-stealing phase 1 needs `LS_n` records and `I+` entries to stay
// readable from pipeline workers WHILE the applier appends. A deque breaks
// that contract (push_back may allocate a new map block and touch internal
// bookkeeping racing readers); this log never moves or frees a committed
// element until destruction:
//
//  * storage is a chain of geometrically growing segments (segment k holds
//    64<<k elements), published through a fixed directory of atomic
//    pointers — an element's address is stable for the log's lifetime;
//  * `reserve()` hands out indices with an atomic fetch-add so multiple
//    producers can claim slots without a lock; `commit()` fills the slot
//    and advances the contiguous-committed watermark;
//  * readers only access indices below `size()` (the watermark), so every
//    visible element is fully constructed — the release-store on the cell's
//    ready flag plus the release-CAS on the watermark give the necessary
//    happens-before edge to `size()`'s acquire load.
//
// In the checker the applier is the only producer of both `LS_n` and `I+`
// (determinism contract, DESIGN.md §12); the multi-producer reserve/commit
// path is exercised by the TSan stress tests and keeps the table honest for
// the distributed-fleet direction in ROADMAP.md.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace lmc::concurrent {

template <typename T>
class SegLog {
 public:
  SegLog() = default;

  ~SegLog() { free_segments(); }

  SegLog(const SegLog& o) { copy_from(o); }
  SegLog& operator=(const SegLog& o) {
    if (this != &o) {
      free_segments();
      reset_counters();
      copy_from(o);
    }
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

  /// Claim the next index. The caller owns the slot until commit().
  std::uint64_t reserve() { return tail_.fetch_add(1, std::memory_order_relaxed); }

  /// Fill a reserved slot and advance the committed watermark over every
  /// contiguous ready cell. Each index is committed by exactly one thread.
  void commit(std::uint64_t i, T value) {
    Cell& c = cell(i, /*create=*/true);
    c.value = std::move(value);
    c.ready.store(1, std::memory_order_release);
    advance_committed();
  }

  /// Single-producer convenience: reserve + commit. Returns the index.
  std::uint64_t push_back(T value) {
    std::uint64_t i = reserve();
    commit(i, std::move(value));
    return i;
  }

  /// Number of contiguously committed elements. Indices below this are
  /// safe to read from any thread.
  std::uint64_t size() const { return committed_.load(std::memory_order_acquire); }

  bool empty() const { return size() == 0; }

  const T& operator[](std::uint64_t i) const { return cell_ro(i).value; }

  /// Mutable access — callers must serialize writes to one element against
  /// its readers themselves (the checker only mutates fields the pipeline
  /// workers never read, e.g. I+ cursors).
  T& mut(std::uint64_t i) { return cell(i, /*create=*/false).value; }

 private:
  // Segment k holds 64<<k elements: [0,64) live in segment 0, [64,192) in
  // segment 1, ... 40 segments cover > 2^45 elements.
  static constexpr std::uint32_t kBaseShift = 6;
  static constexpr std::uint32_t kMaxSegments = 40;

  struct Cell {
    T value{};
    std::atomic<std::uint8_t> ready{0};
  };

  static std::uint32_t segment_of(std::uint64_t i) {
    return static_cast<std::uint32_t>(std::bit_width((i >> kBaseShift) + 1) - 1);
  }
  static std::uint64_t segment_base(std::uint32_t k) {
    return ((std::uint64_t{1} << k) - 1) << kBaseShift;
  }
  static std::uint64_t segment_capacity(std::uint32_t k) {
    return std::uint64_t{1} << (kBaseShift + k);
  }

  Cell& cell(std::uint64_t i, bool create) {
    std::uint32_t k = segment_of(i);
    Cell* seg = segments_[k].load(std::memory_order_acquire);
    if (seg == nullptr && create) {
      Cell* fresh = new Cell[segment_capacity(k)];
      if (segments_[k].compare_exchange_strong(seg, fresh, std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        seg = fresh;
      } else {
        delete[] fresh;  // another producer won the install race
      }
    }
    return seg[i - segment_base(k)];
  }

  const Cell& cell_ro(std::uint64_t i) const {
    std::uint32_t k = segment_of(i);
    return segments_[k].load(std::memory_order_acquire)[i - segment_base(k)];
  }

  void advance_committed() {
    // Scan forward over ready cells from the current watermark. If another
    // committer fills the hole we stopped at, its own rescan (which starts
    // from the then-current watermark) covers our cell — every committed
    // prefix is eventually published.
    for (;;) {
      std::uint64_t c = committed_.load(std::memory_order_acquire);
      std::uint64_t t = tail_.load(std::memory_order_acquire);
      std::uint64_t n = c;
      while (n < t) {
        std::uint32_t k = segment_of(n);
        Cell* seg = segments_[k].load(std::memory_order_acquire);
        if (seg == nullptr || seg[n - segment_base(k)].ready.load(std::memory_order_acquire) == 0)
          break;
        ++n;
      }
      if (n == c) return;
      if (committed_.compare_exchange_weak(c, n, std::memory_order_release,
                                           std::memory_order_relaxed))
        return;
      // Lost the race: someone else advanced; rescan from their watermark.
    }
  }

  void free_segments() {
    for (auto& s : segments_) {
      delete[] s.load(std::memory_order_relaxed);
      s.store(nullptr, std::memory_order_relaxed);
    }
  }

  void reset_counters() {
    tail_.store(0, std::memory_order_relaxed);
    committed_.store(0, std::memory_order_relaxed);
  }

  // Copies the committed prefix. Only meaningful on quiesced logs (the
  // checker copies stores into checkpoint images and tests, never mid-round).
  void copy_from(const SegLog& o) {
    std::uint64_t n = o.size();
    for (std::uint64_t i = 0; i < n; ++i) push_back(o[i]);
  }

  void steal_from(SegLog& o) {
    for (std::uint32_t k = 0; k < kMaxSegments; ++k) {
      segments_[k].store(o.segments_[k].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      o.segments_[k].store(nullptr, std::memory_order_relaxed);
    }
    tail_.store(o.tail_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    committed_.store(o.committed_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    o.reset_counters();
  }

  std::array<std::atomic<Cell*>, kMaxSegments> segments_{};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> committed_{0};
};

}  // namespace lmc::concurrent
