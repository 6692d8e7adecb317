#pragma once
/// \file batched.hpp
/// Synchronous parallel allocation in the spirit of Lenzen & Wattenhofer
/// (STOC'11), the parallel line of work the paper's introduction surveys:
/// balls and bins act in rounds instead of sequentially.
///
/// Round r: every still-unplaced ball sends requests to k_r bins chosen
/// independently and uniformly at random (k_1 = 1 and k doubles each round,
/// capped at `max_fanout`). Every bin with spare capacity accepts a uniform
/// random subset of its requesters, up to `capacity` total balls; everyone
/// else retries next round. With capacity 2 and m = n this places all balls
/// within log* n + O(1)-ish rounds using O(n) messages, max load 2.
///
/// The protocol cannot place more than capacity * n balls; configurations
/// violating that are rejected up-front.
///
/// Streaming reading: one ball at a time there are no rounds, so place_one
/// keeps the defining ingredient — the hard per-bin `capacity` — and probes
/// uniform bins until one with spare capacity accepts. This is the
/// capacity-bounded retry a serving system would run; departures re-open
/// capacity, and a fully saturated system is detected in O(1) and reported
/// by throwing instead of spinning.
///
/// Batch reading: `run_batch` on a wide state without capacities runs the
/// LW rounds above over the whole ball set (rounds() = rounds used);
/// compact and `capacities=` states run the streaming form (rounds() = 0).
/// Batched is therefore the one rule whose batch hook is *not* the place
/// loop (`batch_equivalent() == false`).

#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Capacity-bounded rule: accept any probed bin with load < capacity; in
/// batch on a wide uniform state, the LW rounds.
class BatchedRule final : public PlacementRule {
 public:
  /// \param capacity max balls a bin will accept in total;
  /// \param max_rounds LW rounds before the batch gives up (completed() is
  ///        then false); \param max_fanout cap on per-ball requests per round.
  /// \throws std::invalid_argument if any parameter is 0.
  explicit BatchedRule(std::uint32_t capacity, std::uint32_t max_rounds = 64,
                       std::uint32_t max_fanout = 64);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool batch_equivalent() const noexcept override { return false; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

 protected:
  /// \throws std::logic_error once every bin is at capacity (no departure
  /// has re-opened space — the fixed-capacity deadlock).
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

  /// The LW rounds on a wide state without capacities (probes() counts
  /// every request message); the streaming form elsewhere. Rounds are not
  /// chunked, so `progress` is not called on the LW path.
  /// \throws std::invalid_argument on the LW path if m exceeds the free
  ///         capacity (allocation impossible).
  void do_run_batch(BinState& state, std::uint64_t m, rng::Engine& gen,
                    const BatchProgress& progress) override;

 private:
  std::uint32_t capacity_;
  std::uint32_t max_rounds_;
  std::uint32_t max_fanout_;
};

}  // namespace bbb::core
