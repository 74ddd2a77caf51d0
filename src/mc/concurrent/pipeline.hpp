// Work-stealing execution pipeline for phase 1 (DESIGN.md §12).
//
// The determinism contract (byte-identical checkpoints, violations and
// identity trace streams at 1 vs N threads) hinges on one rule: only the
// APPLIER mutates checker state, and it consumes task results in exactly
// the order the tasks were published. What parallelizes is the expensive
// pure part — running protocol handlers against immutable snapshots of
// `LS_n` and `I+` — which this pipeline fans out to stealing workers:
//
//   applier: publish(t0) publish(t1) ... front()/pop() in t0,t1,... order
//   workers: scan [consumed, published) for PUBLISHED slots, CAS-claim,
//            execute, mark READY
//
// Slot life cycle: EMPTY → PUBLISHED (applier, release) → CLAIMED (worker
// or applier, CAS) → READY (release) → EMPTY (applier pop). Slots live in
// append-only geometric segments that are never freed before destruction,
// so a worker scanning a stale index range can never touch freed memory;
// pop() clears the heavy payload (task/execs/error) and leaves the shell.
//
// When the applier reaches a slot that is still CLAIMED it does not idle:
// it steals a later PUBLISHED slot and executes it inline (help_one), the
// same path a 1-thread run takes for every slot — the single-threaded and
// multi-threaded executions are literally the same code.
//
// Worker exceptions are ALWAYS captured into the slot (even on the inline
// path) and rethrown by the applier at consume time, in publication order;
// secondary exceptions sitting in later READY slots when an earlier one
// throws are counted, not lost (ISSUE 7 satellite: multi-exception loss).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lmc::concurrent {

template <typename Task, typename Exec>
class ExplorePipeline {
 public:
  using ExecFn = std::function<std::vector<Exec>(const Task&)>;

  struct Slot {
    Task task{};
    std::vector<Exec> execs;
    std::exception_ptr error;
    alignas(64) std::atomic<std::uint32_t> state{kEmpty};
  };

  /// `num_workers` stealing threads (0 = everything runs inline on the
  /// applier). `fn` must be pure with respect to checker state: it may read
  /// published/immutable data only.
  ExplorePipeline(std::uint32_t num_workers, ExecFn fn) : fn_(std::move(fn)) {
    workers_.reserve(num_workers);
    for (std::uint32_t i = 0; i < num_workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ExplorePipeline() {
    stop_and_join();
    free_segments();
  }

  ExplorePipeline(const ExplorePipeline&) = delete;
  ExplorePipeline& operator=(const ExplorePipeline&) = delete;

  /// Applier-only. Publishes the next task; its slot index is the
  /// deterministic sequence number of the task.
  std::uint64_t publish(Task t) {
    std::uint64_t i = published_.load(std::memory_order_relaxed);
    Slot& s = slot(i, /*create=*/true);
    s.task = std::move(t);
    s.state.store(kPublished, std::memory_order_release);
    published_.store(i + 1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lk(park_mu_); }  // Dekker: order vs predicate check
      park_cv_.notify_all();
    }
    return i;
  }

  bool have_pending() const {
    return consumed_.load(std::memory_order_relaxed) < published_.load(std::memory_order_relaxed);
  }

  std::uint64_t consumed_count() const { return consumed_.load(std::memory_order_relaxed); }

  /// Applier-only. Blocks until the next slot in publication order is
  /// READY — executing it inline if unclaimed, stealing later published
  /// slots while a worker finishes it — and returns it. The caller reads
  /// .execs/.error, then calls pop().
  Slot& front() {
    std::uint64_t i = consumed_.load(std::memory_order_relaxed);
    Slot& s = slot(i, /*create=*/false);
    std::uint32_t spins = 0;
    for (;;) {
      std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == kReady) return s;
      if (st == kPublished) {
        std::uint32_t expected = kPublished;
        if (s.state.compare_exchange_strong(expected, kClaimed, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
          run_slot(s);  // the 1-thread path: applier executes everything
          return s;
        }
        continue;
      }
      // CLAIMED by a worker: be useful instead of spinning.
      if (help_one(i + 1)) {
        spins = 0;
        continue;
      }
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  /// Applier-only. Releases the front slot's payload and advances.
  void pop() {
    std::uint64_t i = consumed_.load(std::memory_order_relaxed);
    Slot& s = slot(i, /*create=*/false);
    s.task = Task{};
    s.execs.clear();
    s.execs.shrink_to_fit();
    s.error = nullptr;
    s.state.store(kEmpty, std::memory_order_release);
    consumed_.store(i + 1, std::memory_order_seq_cst);
  }

  /// Applier-only, after workers are stopped (or known idle): the tasks
  /// published but not yet consumed, in publication order. These become
  /// checkpoint `pending` entries on budget stops and safepoints.
  std::vector<Task> backlog_tasks() const {
    std::vector<Task> out;
    std::uint64_t from = consumed_.load(std::memory_order_relaxed);
    std::uint64_t to = published_.load(std::memory_order_relaxed);
    out.reserve(to - from);
    for (std::uint64_t i = from; i < to; ++i) out.push_back(slot_ro(i).task);
    return out;
  }

  /// Applier-only, after stop_and_join(): READY slots past the consumption
  /// point whose execution threw — their exceptions will never be rethrown
  /// (an earlier error aborted the run) and must be accounted, not lost.
  std::uint64_t count_dropped_errors() const {
    std::uint64_t dropped = 0;
    std::uint64_t from = consumed_.load(std::memory_order_relaxed);
    std::uint64_t to = published_.load(std::memory_order_relaxed);
    for (std::uint64_t i = from; i < to; ++i) {
      const Slot& s = slot_ro(i);
      if (s.state.load(std::memory_order_acquire) == kReady && s.error != nullptr) ++dropped;
    }
    return dropped;
  }

  /// Stop workers and join them. Idempotent; also called by the dtor.
  /// In-flight claimed slots finish executing first (workers only check
  /// stop_ between tasks), so after this returns every slot is EMPTY,
  /// PUBLISHED, or READY.
  void stop_and_join() {
    stop_.store(true, std::memory_order_seq_cst);
    { std::lock_guard<std::mutex> lk(park_mu_); }
    park_cv_.notify_all();
    for (std::thread& t : workers_)
      if (t.joinable()) t.join();
    workers_.clear();
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kPublished = 1;
  static constexpr std::uint32_t kClaimed = 2;
  static constexpr std::uint32_t kReady = 3;

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

  Slot& slot(std::uint64_t i, bool create) {
    std::uint32_t k = segment_of(i);
    Slot* seg = segments_[k].load(std::memory_order_acquire);
    if (seg == nullptr && create) {
      // Only the applier creates segments: it is the only publisher.
      seg = new Slot[segment_capacity(k)];
      segments_[k].store(seg, std::memory_order_release);
    }
    return seg[i - segment_base(k)];
  }

  const Slot& slot_ro(std::uint64_t i) const {
    std::uint32_t k = segment_of(i);
    return segments_[k].load(std::memory_order_acquire)[i - segment_base(k)];
  }

  void free_segments() {
    for (auto& s : segments_) {
      delete[] s.load(std::memory_order_relaxed);
      s.store(nullptr, std::memory_order_relaxed);
    }
  }

  void run_slot(Slot& s) {
    try {
      s.execs = fn_(s.task);
    } catch (...) {
      s.error = std::current_exception();
    }
    s.state.store(kReady, std::memory_order_release);
  }

  /// Claim and execute one PUBLISHED slot in [from, published). Used by the
  /// applier while it waits for the front slot, and by workers.
  bool help_one(std::uint64_t from) {
    std::uint64_t to = published_.load(std::memory_order_acquire);
    for (std::uint64_t i = from; i < to; ++i) {
      Slot& s = slot(i, /*create=*/false);
      std::uint32_t expected = kPublished;
      if (s.state.load(std::memory_order_acquire) != kPublished) continue;
      if (s.state.compare_exchange_strong(expected, kClaimed, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        run_slot(s);
        return true;
      }
    }
    return false;
  }

  void worker_loop() {
    while (!stop_.load(std::memory_order_seq_cst)) {
      std::uint64_t pub = published_.load(std::memory_order_seq_cst);
      if (help_one(consumed_.load(std::memory_order_relaxed))) continue;
      // Nothing claimable: park until the applier publishes or stops.
      parked_.fetch_add(1, std::memory_order_seq_cst);
      if (published_.load(std::memory_order_seq_cst) == pub &&
          !stop_.load(std::memory_order_seq_cst)) {
        std::unique_lock<std::mutex> lk(park_mu_);
        park_cv_.wait(lk, [&] {
          return stop_.load(std::memory_order_seq_cst) ||
                 published_.load(std::memory_order_seq_cst) != pub;
        });
      }
      parked_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  ExecFn fn_;
  std::array<std::atomic<Slot*>, kMaxSegments> segments_{};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<bool> stop_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::vector<std::thread> workers_;
};

}  // namespace lmc::concurrent
