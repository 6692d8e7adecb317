#pragma once
/// \file special_functions.hpp
/// The small set of special functions the statistics layer needs: regularized
/// incomplete gamma (chi-square p-values), the error function wrappers
/// (normal CDF), and log-factorials. Implementations follow Numerical
/// Recipes-style series/continued-fraction evaluations, accurate to ~1e-12
/// over the ranges the tests exercise.

#include <cstdint>

namespace bbb::stats {

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a),
/// for a > 0, x >= 0.
[[nodiscard]] double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
[[nodiscard]] double gamma_q(double a, double x);

/// Survival function of the chi-square distribution with `df` degrees of
/// freedom: P(X >= x). This is the p-value of a chi-square test statistic.
[[nodiscard]] double chi_square_sf(double x, double df);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z);

/// Standard normal upper tail P(Z >= z).
[[nodiscard]] double normal_sf(double z);

/// ln|Gamma(x)| — std::lgamma's value bit for bit, but through the
/// reentrant lgamma_r: glibc's std::lgamma also writes the global
/// `signgam`, a data race between threads that evaluate it concurrently
/// (law-tier replicates on the pool). Every ln Gamma in the library
/// goes through here.
[[nodiscard]] double log_gamma(double x) noexcept;

/// ln(k!) via log_gamma.
[[nodiscard]] double log_factorial(std::uint64_t k);

/// Kolmogorov survival function Q(lambda) = 2 sum_{k>=1} (-1)^{k-1}
/// exp(-2 k^2 lambda^2) — the asymptotic null distribution of the scaled
/// KS statistic. Shared by the one- and two-sample KS tests.
[[nodiscard]] double kolmogorov_sf(double lambda);

}  // namespace bbb::stats
