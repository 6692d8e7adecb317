#include "bbb/par/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bbb::par {

std::size_t ThreadPool::resolve_threads(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc, 1, kMaxThreads);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: " + std::to_string(num_threads) +
                                " threads requested, at most " +
                                std::to_string(kMaxThreads) + " supported");
  }
  const std::size_t n = resolve_threads(num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace bbb::par
