#include "bbb/stats/special_functions.hpp"

#include <math.h>  // lgamma_r (POSIX; not in <cmath>)

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bbb::stats {

namespace {

constexpr int kMaxIter = 500;
constexpr double kEps = 1e-14;
constexpr double kFpMin = 1e-300;

// Series representation of P(a, x); converges fast for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Lentz continued fraction for Q(a, x); converges fast for x > a + 1.
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

double gamma_p(double a, double x) {
  if (!(a > 0.0) || x < 0.0) throw std::invalid_argument("gamma_p: need a > 0, x >= 0");
  if (x == 0.0) return 0.0;
  return x < a + 1.0 ? gamma_p_series(a, x) : 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  if (!(a > 0.0) || x < 0.0) throw std::invalid_argument("gamma_q: need a > 0, x >= 0");
  if (x == 0.0) return 1.0;
  return x < a + 1.0 ? 1.0 - gamma_p_series(a, x) : gamma_q_cf(a, x);
}

double chi_square_sf(double x, double df) {
  if (x <= 0.0) return 1.0;
  return gamma_q(df / 2.0, x / 2.0);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_sf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

double log_gamma(double x) noexcept {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double log_factorial(std::uint64_t k) {
  return log_gamma(static_cast<double>(k) + 1.0);
}

double kolmogorov_sf(double lambda) {
  if (lambda < 1e-6) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

}  // namespace bbb::stats
