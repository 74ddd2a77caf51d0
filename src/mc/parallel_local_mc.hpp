// Deterministic parallel execution helpers for the local checker.
//
// §1 (contributions): "Having the exploration, system state creation, and
// soundness verification decoupled, the model checking process can be
// embarrassingly parallelized." Three phases of an LMC round are fanned out
// over the checker's one pool:
//  * handler execution — a chunk of a generation's tasks reads node states
//    and I+ entries that nothing writes during the fan-out, and writes each
//    task's results, or its exception, to the task's slot;
//  * the LMC-GEN combination sweep (the Cartesian product) — shards of the
//    enumeration space emit preliminary violations tagged with their
//    enumeration index (the LMC-OPT sweep needs no shards: it tests one
//    class per distinct projection, inline on the calling thread);
//  * soundness verification — feasibility pre-checks and (quick or full)
//    joint searches of independent combinations.
// Every phase merges its results sequentially in task order on the calling
// thread, so an LMC run is bit-identical regardless of thread count.
//
// `WorkerPool` keeps its threads alive across calls: a round performs many
// small fan-outs (one sweep per new node state), and spawn-per-call thread
// creation would dominate them. A worker exception does not cross the
// std::thread boundary (which would std::terminate the process): the first
// one is captured, remaining tasks are abandoned, and run() rethrows it on
// the calling thread. (Phase 1 catches each handler's exception in its task
// slot instead, so the applier can rethrow in publication order.)
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lmc {

/// A persistent pool of `threads - 1` workers; the calling thread is the
/// remaining lane, so `run` uses exactly `threads` lanes and a pool of width
/// 1 never context-switches. The pool is runtime-only state: it is never
/// serialized (checkpoints exclude it — see persist/FORMAT.md) and a checker
/// recreates it lazily after a restore.
class WorkerPool {
 public:
  /// threads <= 1 creates no worker threads (run() degenerates to a loop).
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Parallel lanes run() distributes over (worker threads + the caller).
  unsigned width() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(0..n-1) across the pool and the calling thread; returns when all
  /// indices finished. fn must be thread-safe for distinct indices; results
  /// must be written to per-index slots. If any invocation throws, the first
  /// exception is rethrown here (after all workers went idle) and the
  /// remaining indices are skipped; the pool stays usable. Not reentrant:
  /// do not call run() from inside fn.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Exceptions thrown by workers AFTER the first one of a run() was already
  /// captured. run() rethrows only the first; the rest used to vanish
  /// silently — now they are counted here (cumulative across runs) so the
  /// checker can surface the loss in reports (kWorkerError trace events).
  std::uint64_t dropped_exceptions() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  void worker_loop();
  void drain(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_cv_;  ///< workers wait for a new job
  std::condition_variable done_cv_;  ///< run() waits for workers to finish
  const std::function<void(std::size_t)>* job_ = nullptr;  // guarded by mu_
  std::size_t job_n_ = 0;                                  // guarded by mu_
  std::uint64_t generation_ = 0;                           // guarded by mu_
  std::size_t active_ = 0;                                 // guarded by mu_
  bool shutdown_ = false;                                  // guarded by mu_
  std::exception_ptr first_error_;                         // guarded by mu_
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> dropped_{0};  ///< secondary exceptions (see accessor)
};

}  // namespace lmc
