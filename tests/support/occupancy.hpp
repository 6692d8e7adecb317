#pragma once
/// \file occupancy.hpp
/// Classic occupancy quantities for the one-choice process — the exact
/// reference values the one-choice distribution tests compare against.
/// (The paper's Table 1 cites these results; the closed forms are the
/// oracle a simulated load histogram is checked against.)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "bbb/stats/special_functions.hpp"

namespace bbb::test {

namespace occupancy_detail {

inline void check_n(std::uint64_t n, const char* fn) {
  if (n == 0) throw std::invalid_argument(std::string(fn) + ": n must be positive");
}

// log of the Bin(m, 1/n) pmf at k.
inline double log_binomial_pmf(std::uint64_t m, std::uint64_t n, std::uint32_t k) {
  const auto md = static_cast<double>(m);
  const auto kd = static_cast<double>(k);
  const double log_choose = stats::log_gamma(md + 1.0) - stats::log_gamma(kd + 1.0) -
                            stats::log_gamma(md - kd + 1.0);
  const double p = 1.0 / static_cast<double>(n);
  return log_choose + kd * std::log(p) + (md - kd) * std::log1p(-p);
}

}  // namespace occupancy_detail

/// E[# empty bins] after m uniform throws into n bins: n (1 - 1/n)^m.
[[nodiscard]] inline double expected_empty_bins(std::uint64_t m, std::uint64_t n) {
  occupancy_detail::check_n(n, "expected_empty_bins");
  const auto nd = static_cast<double>(n);
  return nd * std::exp(static_cast<double>(m) * std::log1p(-1.0 / nd));
}

/// E[# bins with exactly k balls]: n * C(m,k) (1/n)^k (1-1/n)^{m-k},
/// evaluated in the log domain (stable for large m).
[[nodiscard]] inline double expected_bins_with_load(std::uint64_t m, std::uint64_t n,
                                                    std::uint32_t k) {
  occupancy_detail::check_n(n, "expected_bins_with_load");
  if (k > m) return 0.0;
  if (n == 1) return k == m ? 1.0 : 0.0;
  return static_cast<double>(n) * std::exp(occupancy_detail::log_binomial_pmf(m, n, k));
}

/// Probability that a *fixed* bin receives at least k balls (binomial upper
/// tail, exact summation in the log domain; k must be <= m).
[[nodiscard]] inline double bin_load_at_least(std::uint64_t m, std::uint64_t n,
                                              std::uint32_t k) {
  occupancy_detail::check_n(n, "bin_load_at_least");
  if (k == 0) return 1.0;
  if (k > m) return 0.0;
  if (n == 1) return 1.0;  // the single bin holds all m >= k balls
  // Sum the pmf from k to m; terms decay geometrically past the mean, so
  // stop when they stop mattering.
  double acc = 0.0;
  for (std::uint64_t j = k; j <= m; ++j) {
    const double term =
        std::exp(occupancy_detail::log_binomial_pmf(m, n, static_cast<std::uint32_t>(j)));
    acc += term;
    if (term < 1e-18 * acc && j > m / n + k) break;
  }
  return std::min(acc, 1.0);
}

/// First-moment upper bound on Pr[max load >= k]: n * Pr[Bin(m,1/n) >= k],
/// clamped to 1. The union-bound workhorse of every balls-into-bins proof.
[[nodiscard]] inline double max_load_union_bound(std::uint64_t m, std::uint64_t n,
                                                 std::uint32_t k) {
  occupancy_detail::check_n(n, "max_load_union_bound");
  return std::min(1.0, static_cast<double>(n) * bin_load_at_least(m, n, k));
}

/// Expected fraction of balls landing in bins that already hold >= k balls
/// at the end (collision pressure).
[[nodiscard]] inline double expected_overflow_mass(std::uint64_t m, std::uint64_t n,
                                                   std::uint32_t k) {
  occupancy_detail::check_n(n, "expected_overflow_mass");
  if (m == 0) return 0.0;
  // E[# balls in bins with final load >= k] = sum_{j >= k} j * E[#bins@j],
  // normalized by m.
  double mass = 0.0;
  for (std::uint64_t j = k; j <= m; ++j) {
    const double bins_at_j = expected_bins_with_load(m, n, static_cast<std::uint32_t>(j));
    mass += static_cast<double>(j) * bins_at_j;
    if (bins_at_j < 1e-18 && j > m / n + k) break;
  }
  return std::min(1.0, mass / static_cast<double>(m));
}

}  // namespace bbb::test
