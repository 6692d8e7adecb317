#include "bbb/core/protocols/batched.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bbb/core/probe.hpp"
#include "bbb/rng/engine.hpp"

namespace bbb::core {

BatchedRule::BatchedRule(std::uint32_t capacity, std::uint32_t max_rounds,
                         std::uint32_t max_fanout)
    : capacity_(capacity), max_rounds_(max_rounds), max_fanout_(max_fanout) {
  if (capacity == 0 || max_rounds == 0 || max_fanout == 0) {
    throw std::invalid_argument("BatchedRule: capacity/max_rounds/max_fanout > 0");
  }
}

std::string BatchedRule::name() const {
  return "batched[" + std::to_string(capacity_) + "]";
}

std::uint32_t BatchedRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                    rng::Engine& gen) {
  // Every bin full and nobody departing: the capacity bound can never
  // admit another ball. Detect in O(1) instead of spinning.
  if (state.min_load() >= capacity_) {
    throw std::logic_error("BatchedRule: every bin is at capacity " +
                           std::to_string(capacity_));
  }
  const std::uint32_t bin = probe_until(
      gen, probes_, UniformBin{state.n()},
      [this, &state](std::uint32_t b) { return state.load(b) < capacity_; });
  state.add_ball(bin);
  return bin;
}

void BatchedRule::do_run_batch(BinState& state, std::uint64_t m, rng::Engine& gen,
                               const BatchProgress& progress) {
  if (state.layout() != StateLayout::kWide || !state.capacities().empty()) {
    PlacementRule::do_run_batch(state, m, gen, progress);
    return;
  }
  const std::uint32_t n = state.n();
  const std::uint64_t slots = static_cast<std::uint64_t>(capacity_) * n;
  if (state.balls() > slots || m > slots - state.balls()) {
    throw std::invalid_argument(
        "BatchedRule: m exceeds capacity * n, allocation impossible");
  }
  if (m == 0) return;

  std::vector<std::uint64_t> unplaced(m);
  for (std::uint64_t i = 0; i < m; ++i) unplaced[i] = i;
  std::vector<char> placed(m, 0);
  std::uint64_t placed_count = 0;

  // Per-bin requester lists, rebuilt each round. `touched` tracks which bins
  // to clear so a sparse late round does not pay O(n).
  std::vector<std::vector<std::uint64_t>> requesters(n);
  std::vector<std::uint32_t> touched;
  touched.reserve(std::min<std::uint64_t>(n, 4 * m));

  std::uint32_t fanout = 1;
  for (std::uint32_t round = 1; round <= max_rounds_; ++round) {
    rounds_ = round;

    for (std::uint32_t b : touched) requesters[b].clear();
    touched.clear();

    // Request phase: every unplaced ball contacts `fanout` uniform bins.
    for (std::uint64_t ball : unplaced) {
      for (std::uint32_t j = 0; j < fanout; ++j) {
        const auto bin = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
        ++probes_;
        if (requesters[bin].empty()) touched.push_back(bin);
        requesters[bin].push_back(ball);
      }
    }

    // Accept phase. Bins decide in an arbitrary fixed order (the order they
    // were first contacted); each shuffles its requesters and admits the
    // first still-unplaced ones up to its spare capacity. A ball accepted
    // by an earlier bin is skipped by later bins, which models the ball
    // acknowledging exactly one acceptance.
    for (std::uint32_t bin : touched) {
      auto& req = requesters[bin];
      const std::uint32_t load = state.load(bin);
      std::uint32_t spare = capacity_ > load ? capacity_ - load : 0;
      if (spare == 0) continue;
      // Fisher-Yates shuffle for a uniformly random acceptance order.
      for (std::size_t i = req.size(); i > 1; --i) {
        const std::size_t j = rng::uniform_below(gen, i);
        std::swap(req[i - 1], req[j]);
      }
      for (std::uint64_t ball : req) {
        if (placed[ball]) continue;  // duplicate request or accepted elsewhere
        placed[ball] = 1;
        state.add_ball(bin);
        ++placed_count;
        if (--spare == 0) break;
      }
    }

    if (placed_count == m) break;
    std::erase_if(unplaced, [&](std::uint64_t ball) { return placed[ball] != 0; });
    fanout = std::min(fanout * 2, max_fanout_);
  }

  total_placed_ += placed_count;
  completed_ = completed_ && placed_count == m;
}

}  // namespace bbb::core
