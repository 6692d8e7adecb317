#include "bbb/theory/occupancy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bbb/stats/special_functions.hpp"

namespace bbb::theory {

namespace {

void check_n(std::uint64_t n, const char* fn) {
  if (n == 0) throw std::invalid_argument(std::string(fn) + ": n must be positive");
}

// log of the Bin(m, 1/n) pmf at k.
double log_binomial_pmf(std::uint64_t m, std::uint64_t n, std::uint32_t k) {
  const auto md = static_cast<double>(m);
  const auto kd = static_cast<double>(k);
  const double log_choose =
      stats::log_gamma(md + 1.0) - stats::log_gamma(kd + 1.0) - stats::log_gamma(md - kd + 1.0);
  const double p = 1.0 / static_cast<double>(n);
  return log_choose + kd * std::log(p) + (md - kd) * std::log1p(-p);
}

}  // namespace

double expected_empty_bins(std::uint64_t m, std::uint64_t n) {
  check_n(n, "expected_empty_bins");
  const auto nd = static_cast<double>(n);
  return nd * std::exp(static_cast<double>(m) * std::log1p(-1.0 / nd));
}

double expected_bins_with_load(std::uint64_t m, std::uint64_t n, std::uint32_t k) {
  check_n(n, "expected_bins_with_load");
  if (k > m) return 0.0;
  if (n == 1) return k == m ? 1.0 : 0.0;
  return static_cast<double>(n) * std::exp(log_binomial_pmf(m, n, k));
}

double bin_load_at_least(std::uint64_t m, std::uint64_t n, std::uint32_t k) {
  check_n(n, "bin_load_at_least");
  if (k == 0) return 1.0;
  if (k > m) return 0.0;
  if (n == 1) return 1.0;  // the single bin holds all m >= k balls
  // Sum the pmf from k to m; terms decay geometrically past the mean, so
  // stop when they stop mattering.
  double acc = 0.0;
  for (std::uint64_t j = k; j <= m; ++j) {
    const double term = std::exp(log_binomial_pmf(m, n, static_cast<std::uint32_t>(j)));
    acc += term;
    if (term < 1e-18 * acc && j > m / n + k) break;
  }
  return std::min(acc, 1.0);
}

double max_load_union_bound(std::uint64_t m, std::uint64_t n, std::uint32_t k) {
  check_n(n, "max_load_union_bound");
  return std::min(1.0, static_cast<double>(n) * bin_load_at_least(m, n, k));
}

double expected_overflow_mass(std::uint64_t m, std::uint64_t n, std::uint32_t k) {
  check_n(n, "expected_overflow_mass");
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

}  // namespace bbb::theory
