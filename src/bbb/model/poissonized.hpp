#pragma once
/// \file poissonized.hpp
/// The Poissonized balls-into-bins model behind Lemma A.7 of the paper.
///
/// Exact model P1: m balls thrown independently and uniformly — bin loads
/// are a multinomial vector (sum exactly m). Poisson model P2: every bin's
/// load is an independent Poisson(m/n) variable (sum only m in expectation).
/// Lemma A.7 transfers event probabilities:
///   (1) Pr_P1[A] <= Pr_P2[A] * sqrt(n)          for any event A,
///   (2) Pr_P1[A] <= 4 * Pr_P2[A]                for increasing events A.
/// The proofs of Theorem 4.1 and Lemma 4.2 lean on exactly this; the module
/// samples both models so the transfer can be checked empirically
/// (bench_appendix_poisson, tests/model).

#include <cstdint>
#include <functional>
#include <vector>

#include "bbb/rng/xoshiro256.hpp"

namespace bbb::model {

/// Exact model P1: loads of n bins after m uniform throws.
[[nodiscard]] std::vector<std::uint32_t> exact_loads(std::uint64_t m, std::uint32_t n,
                                                     rng::Engine& gen);

/// Poisson model P2: n independent Poisson(lambda) loads.
[[nodiscard]] std::vector<std::uint32_t> poissonized_loads(double lambda,
                                                           std::uint32_t n,
                                                           rng::Engine& gen);

/// Level counts K_j = #{i : loads[i] == j} for j = 0..max load — the
/// sufficient statistic both the exact and Poisson models share with the
/// law tier (law::OccupancyProfile), letting the cross-validation tests
/// compare a per-bin simulation against a level-count sampler cell by cell.
/// \throws std::invalid_argument if `loads` is empty.
[[nodiscard]] std::vector<std::uint64_t> level_counts_of(
    const std::vector<std::uint32_t>& loads);

/// Monte-Carlo probability of `event` under the exact model.
[[nodiscard]] double estimate_exact_probability(
    std::uint64_t m, std::uint32_t n, std::uint32_t trials, rng::Engine& gen,
    const std::function<bool(const std::vector<std::uint32_t>&)>& event);

/// Monte-Carlo probability of `event` under the Poisson model with
/// lambda = m/n.
[[nodiscard]] double estimate_poisson_probability(
    std::uint64_t m, std::uint32_t n, std::uint32_t trials, rng::Engine& gen,
    const std::function<bool(const std::vector<std::uint32_t>&)>& event);

}  // namespace bbb::model
