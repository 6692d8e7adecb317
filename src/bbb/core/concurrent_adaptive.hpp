#pragma once
/// \file concurrent_adaptive.hpp
/// A lock-free shared-memory implementation of the adaptive protocol for
/// multi-threaded dispatchers.
///
/// Why this is correct: the acceptance bound of adaptive for ball i is
/// ceil(i/n), which is *constant within a stage of n balls* — so a bound
/// computed from a ball counter that lags by up to n placements is
/// identical to the fresh one (stale-adaptive, the kStale clock of
/// protocols/bounded_probe.hpp, is the sequential form of this). With T
/// concurrent placers the counter snapshot a thread reads lags by at most
/// T in-flight placements; for T <= n the computed
/// bound is therefore the exact sequential bound, and a CAS on the bin's
/// load enforces "observed load <= bound" atomically with the increment.
/// Consequences:
///   * max load <= ceil(m/n) + 1 holds under any interleaving;
///   * termination holds (the stale bound is >= ceil(i/n) - 1 and a bin at
///     that level always exists by pigeonhole);
///   * the *set* of outcomes matches sequential adaptive in distribution,
///     though not bit-for-bit (thread interleaving reorders probes).
///
/// The load array uses one cache line per counter group; this simulator is
/// about correctness under concurrency, not about NUMA placement.
///
/// Notation: n bins fixed at construction; with i = balls(), the next
/// placement is the paper's ball i+1, and a bin accepts it iff its load is
/// at most floor(i/n) + 1 = ceil((i+1)/n) — the integer form of the
/// Figure 1 rule "load < (i+1)/n + 1" at slack 1.
///
/// Invariants (checked in tests/core/concurrent_adaptive_test.cpp):
///   * sum of loads_snapshot() == balls() once all placers have returned;
///   * max load <= ceil(balls()/n) + 1 under any interleaving;
///   * probes() >= balls().

#include <atomic>
#include <cstdint>
#include <vector>

#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {

/// Thread-safe adaptive allocator: any number of threads may call place()
/// concurrently, each with its own engine.
class ConcurrentAdaptiveAllocator {
 public:
  /// \throws std::invalid_argument if n == 0.
  explicit ConcurrentAdaptiveAllocator(std::uint32_t n);

  ConcurrentAdaptiveAllocator(const ConcurrentAdaptiveAllocator&) = delete;
  ConcurrentAdaptiveAllocator& operator=(const ConcurrentAdaptiveAllocator&) = delete;

  /// Place one ball; returns the chosen bin. Lock-free (CAS loop on the
  /// target bin plus a relaxed counter increment).
  std::uint32_t place(rng::Engine& gen);

  [[nodiscard]] std::uint32_t n() const noexcept {
    return static_cast<std::uint32_t>(loads_.size());
  }
  /// Balls placed so far (exact once all placers have returned).
  [[nodiscard]] std::uint64_t balls() const noexcept {
    return balls_.load(std::memory_order_acquire);
  }
  /// Probes drawn so far (exact once all placers have returned).
  [[nodiscard]] std::uint64_t probes() const noexcept {
    return probes_.load(std::memory_order_acquire);
  }
  /// Load of one bin (racy while placers run; exact afterwards).
  [[nodiscard]] std::uint32_t load(std::uint32_t bin) const noexcept {
    return loads_[bin].load(std::memory_order_acquire);
  }
  /// Snapshot of all loads (exact once all placers have returned).
  [[nodiscard]] std::vector<std::uint32_t> loads_snapshot() const;

 private:
  std::vector<std::atomic<std::uint32_t>> loads_;
  std::atomic<std::uint64_t> balls_{0};
  std::atomic<std::uint64_t> probes_{0};
};

}  // namespace bbb::core
