#pragma once
/// \file holes.hpp
/// The holes process W_t from the proof of Theorem 4.1.
///
/// The proof fixes an infinite vector C of i.i.d. uniform bin choices in
/// advance: ball 1 consumes entries until it is placed, ball 2 continues
/// from there, and the allocation time is the number of entries consumed.
/// C is exactly the stream of uniform bin draws an engine yields, so the
/// registry's own `threshold` rule driven by `gen` runs over it.
///
/// Fix capacity cap = ceil(m/n) + 1. A bin with l balls has cap - l holes;
/// W_t is the total number of holes after the first t entries of the choice
/// vector have been processed by threshold. The proof shows that after
/// T = (phi + phi^{3/4} + 1) n entries, W_T <= n w.h.p. — and W_t <= n means
/// all m balls are placed (threshold never fills past cap, so placed =
/// (cap) * n - W_t >= m).
///
/// This module records the W_t trajectory so the endgame of the proof can
/// be watched directly (bench_appendix_poisson).

#include <cstdint>
#include <vector>

#include "bbb/rng/xoshiro256.hpp"

namespace bbb::model {

/// One sampled point of the holes process.
struct HolesPoint {
  std::uint64_t t = 0;       ///< choice-vector entries processed
  std::uint64_t holes = 0;   ///< W_t
  std::uint64_t placed = 0;  ///< balls placed so far
};

/// Run the registry's threshold rule for m balls into n bins over the
/// choices `gen` draws, recording W_t every `stride` processed entries (and
/// at the final entry). The capacity is ceil(m/n) + 1 as in the paper, and
/// `gen` ends exactly after the last consumed entry.
/// \throws std::invalid_argument if m == 0 or n == 0.
[[nodiscard]] std::vector<HolesPoint> holes_trajectory(std::uint64_t m, std::uint32_t n,
                                                       rng::Engine& gen,
                                                       std::uint64_t stride);

/// The paper's T = (phi + phi^{3/4} + 1) * n probe budget from Theorem 4.1,
/// with phi = m/n (rounded up to an integer phi as in the proof).
[[nodiscard]] std::uint64_t theorem41_probe_budget(std::uint64_t m, std::uint32_t n);

}  // namespace bbb::model
