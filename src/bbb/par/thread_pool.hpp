#pragma once
/// \file thread_pool.hpp
/// A fixed-size worker pool with a simple FIFO task queue.
///
/// The Monte-Carlo runner distributes independent replicates across workers.
/// Determinism is preserved because the replicate-to-seed mapping is fixed
/// ahead of scheduling (see bbb/rng/streams.hpp) — the pool only affects
/// *when* a replicate runs, never *what* it computes.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bbb::par {

/// Fixed worker pool. Tasks are void() callables; exceptions thrown by a
/// task terminate the program (tasks are expected to capture-and-report).
class ThreadPool {
 public:
  /// Most workers one pool spawns. Replicate-level parallelism gains
  /// nothing past the core count, and each worker reserves a full stack,
  /// so a request like 100000 would spend seconds creating threads.
  static constexpr std::size_t kMaxThreads = 1024;

  /// \param num_threads 0 means hardware_concurrency (at least 1, at most
  ///        kMaxThreads).
  /// \throws std::invalid_argument if num_threads > kMaxThreads.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. Thread-safe.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Resolve a requested thread count: 0 -> hardware_concurrency clamped
  /// to [1, kMaxThreads]; any other value is returned as is.
  [[nodiscard]] static std::size_t resolve_threads(std::size_t requested) noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace bbb::par
