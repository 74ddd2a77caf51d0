#include "mc/parallel_local_mc.hpp"

namespace lmc {

WorkerPool::WorkerPool(unsigned threads) {
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  for (unsigned w = 0; w + 1 < threads; ++w) workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::drain(const std::function<void(std::size_t)>& fn, std::size_t n) {
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      } else {
        // Only the first exception crosses run(); losing the rest silently
        // would hide real failures, so at least account for them.
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    wake_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const std::function<void(std::size_t)>* fn = job_;
    const std::size_t n = job_n_;
    lk.unlock();
    drain(*fn, n);
    lk.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // No pool (or nothing to share): plain loop, exceptions propagate as-is.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_ = workers_.size();
    ++generation_;
  }
  wake_cv_.notify_all();
  drain(fn, n);  // the calling thread is a lane too
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return active_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace lmc
