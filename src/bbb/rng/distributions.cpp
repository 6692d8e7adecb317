#include "bbb/rng/distributions.hpp"

#include <cmath>

#include "bbb/stats/special_functions.hpp"

namespace bbb::rng {

// --------------------------------------------------------------------- Normal

NormalDist::NormalDist(double mean, double stddev) : mean_(mean), stddev_(stddev) {
  if (!(stddev > 0.0) || !std::isfinite(stddev) || !std::isfinite(mean)) {
    throw std::invalid_argument("NormalDist: stddev must be positive and finite");
  }
}

double NormalDist::operator()(Engine& gen) const {
  // Marsaglia polar method; acceptance probability pi/4, discard the spare.
  for (;;) {
    const double u = 2.0 * next_double(gen) - 1.0;
    const double v = 2.0 * next_double(gen) - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return mean_ + stddev_ * u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

// -------------------------------------------------------------------- Poisson

PoissonDist::PoissonDist(double lambda) : lambda_(lambda) {
  if (!(lambda >= 0.0) || !std::isfinite(lambda)) {
    throw std::invalid_argument("PoissonDist: lambda must be >= 0 and finite");
  }
  use_ptrs_ = lambda_ >= 10.0;
  if (use_ptrs_) {
    // Hörmann (1993), algorithm PTRS.
    b_ = 0.931 + 2.53 * std::sqrt(lambda_);
    a_ = -0.059 + 0.02483 * b_;
    inv_alpha_ = 1.1239 + 1.1328 / (b_ - 3.4);
    v_r_ = 0.9277 - 3.6224 / (b_ - 2.0);
    log_lambda_ = std::log(lambda_);
  } else {
    exp_neg_lambda_ = std::exp(-lambda_);
  }
}

std::uint64_t PoissonDist::operator()(Engine& gen) const {
  return use_ptrs_ ? sample_ptrs(gen) : sample_inversion(gen);
}

std::uint64_t PoissonDist::sample_inversion(Engine& gen) const {
  // Multiply uniforms until the product drops below exp(-lambda).
  std::uint64_t k = 0;
  double prod = next_double_nonzero(gen);
  while (prod > exp_neg_lambda_) {
    ++k;
    prod *= next_double_nonzero(gen);
  }
  return k;
}

std::uint64_t PoissonDist::sample_ptrs(Engine& gen) const {
  for (;;) {
    const double u = next_double(gen) - 0.5;
    const double v = next_double_nonzero(gen);
    const double us = 0.5 - std::abs(u);
    const double kf = std::floor((2.0 * a_ / us + b_) * u + lambda_ + 0.43);
    if (us >= 0.07 && v <= v_r_ && kf >= 0.0) {
      return static_cast<std::uint64_t>(kf);
    }
    if (kf < 0.0 || (us < 0.013 && v > us)) {
      continue;
    }
    if (std::log(v * inv_alpha_ / (a_ / (us * us) + b_)) <=
        kf * log_lambda_ - lambda_ - stats::log_gamma(kf + 1.0)) {
      return static_cast<std::uint64_t>(kf);
    }
  }
}

double PoissonDist::pmf(std::uint64_t k) const {
  const auto kd = static_cast<double>(k);
  if (lambda_ == 0.0) return k == 0 ? 1.0 : 0.0;
  return std::exp(kd * std::log(lambda_) - lambda_ - stats::log_gamma(kd + 1.0));
}

double PoissonDist::cdf(std::uint64_t k) const {
  // Direct summation; fine for the moderate k the tests use.
  double acc = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) acc += pmf(i);
  return acc < 1.0 ? acc : 1.0;
}

double PoissonDist::sf(std::uint64_t k) const {
  if (k == 0) return 1.0;
  if (lambda_ == 0.0) return 0.0;
  // Sum whichever side of the mean is the small one; both series have
  // positive terms with ratios < 1 (slowest near the mean, where they need
  // O(sqrt(lambda)) terms), so there is no cancellation at any depth.
  constexpr std::uint64_t kMaxTerms = 100'000'000;
  if (static_cast<double>(k) <= lambda_) {
    // Head P(X <= k-1) = pmf(k-1) * (1 + (k-1)/lambda + (k-1)(k-2)/lambda^2
    // + ...); sf = 1 - head loses only absolute precision, which is fine
    // left of the mean where sf is order 1.
    const double p = pmf(k - 1);
    if (p == 0.0) return 1.0;
    double term = 1.0;
    double series = 1.0;
    for (std::uint64_t j = k - 1; j > 0 && k - 1 - j < kMaxTerms; --j) {
      term *= static_cast<double>(j) / lambda_;
      series += term;
      if (term < series * 1e-17) break;
    }
    const double head = p * series;
    return head < 1.0 ? 1.0 - head : 0.0;
  }
  // Tail P(X >= k) = pmf(k) * (1 + lambda/(k+1) + lambda^2/((k+1)(k+2)) + ...).
  const double p_k = pmf(k);
  if (p_k == 0.0) return 0.0;
  double term = 1.0;
  double series = 1.0;
  for (std::uint64_t i = k + 1; i - k < kMaxTerms; ++i) {
    term *= lambda_ / static_cast<double>(i);
    series += term;
    if (term < series * 1e-17) break;
  }
  const double tail = p_k * series;
  return tail < 1.0 ? tail : 1.0;
}

// ------------------------------------------------------------------- Binomial

BinomialDist::BinomialDist(std::uint64_t n, double p) : n_(n), p_(p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("BinomialDist: p must be in [0, 1]");
  }
  pp_ = p <= 0.5 ? p : 1.0 - p;
  flipped_ = p > 0.5;
  const double npp = static_cast<double>(n_) * pp_;
  use_btrs_ = npp >= 10.0;
  if (n_ == 0 || pp_ == 0.0) {
    use_btrs_ = false;
    s_ = 0.0;
    q_pow_n_ = 1.0;
  } else if (use_btrs_) {
    // Hörmann (1993), algorithm BTRS (transformed rejection with squeeze).
    const double q = 1.0 - pp_;
    spq_ = std::sqrt(npp * q);
    b_ = 1.15 + 2.53 * spq_;
    a_ = -0.0873 + 0.0248 * b_ + 0.01 * pp_;
    c_ = npp + 0.5;
    vr_ = 0.92 - 4.2 / b_;
    alpha_ = (2.83 + 5.1 / b_) * spq_;
    lpq_ = std::log(pp_ / q);
    m_ = std::floor(static_cast<double>(n_ + 1) * pp_);
    h_ = stats::log_gamma(m_ + 1.0) + stats::log_gamma(static_cast<double>(n_) - m_ + 1.0);
  } else {
    const double q = 1.0 - pp_;
    s_ = pp_ / q;
    q_pow_n_ = std::pow(q, static_cast<double>(n_));
  }
}

std::uint64_t BinomialDist::operator()(Engine& gen) const {
  std::uint64_t k;
  if (n_ == 0 || pp_ == 0.0) {
    k = 0;
  } else {
    k = use_btrs_ ? sample_btrs(gen) : sample_inversion(gen);
  }
  return flipped_ ? n_ - k : k;
}

std::uint64_t BinomialDist::sample_inversion(Engine& gen) const {
  // BINV: walk the CDF from k = 0 using the pmf recurrence.
  for (;;) {
    double u = next_double(gen);
    std::uint64_t k = 0;
    double f = q_pow_n_;
    // q^n can underflow to 0 for huge n with tiny p (but then npp >= 10 and
    // BTRS is used); guard anyway by restarting on pathological f == 0.
    if (f <= 0.0) return static_cast<std::uint64_t>(static_cast<double>(n_) * pp_);
    while (u > f) {
      u -= f;
      ++k;
      if (k > n_) break;  // floating-point slack: retry
      f *= s_ * static_cast<double>(n_ - k + 1) / static_cast<double>(k);
    }
    if (k <= n_) return k;
  }
}

std::uint64_t BinomialDist::sample_btrs(Engine& gen) const {
  const auto nd = static_cast<double>(n_);
  for (;;) {
    const double u = next_double(gen) - 0.5;
    const double v = next_double_nonzero(gen);
    const double us = 0.5 - std::abs(u);
    const double kf = std::floor((2.0 * a_ / us + b_) * u + c_);
    if (kf < 0.0 || kf > nd) continue;
    if (us >= 0.07 && v <= vr_) return static_cast<std::uint64_t>(kf);
    const double lhs = std::log(v * alpha_ / (a_ / (us * us) + b_));
    const double rhs = h_ - stats::log_gamma(kf + 1.0) - stats::log_gamma(nd - kf + 1.0) +
                       (kf - m_) * lpq_;
    if (lhs <= rhs) return static_cast<std::uint64_t>(kf);
  }
}

double BinomialDist::pmf(std::uint64_t k) const {
  if (k > n_) return 0.0;
  if (p_ == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p_ == 1.0) return k == n_ ? 1.0 : 0.0;
  const auto nd = static_cast<double>(n_);
  const auto kd = static_cast<double>(k);
  const double log_binom =
      stats::log_gamma(nd + 1.0) - stats::log_gamma(kd + 1.0) - stats::log_gamma(nd - kd + 1.0);
  return std::exp(log_binom + kd * std::log(p_) + (nd - kd) * std::log1p(-p_));
}

// ------------------------------------------------------------------ Geometric

GeometricDist::GeometricDist(double p) : p_(p) {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("GeometricDist: p must be in (0, 1]");
  }
  log1m_p_ = p < 1.0 ? std::log1p(-p) : 0.0;
}

std::uint64_t GeometricDist::operator()(Engine& gen) const {
  if (p_ == 1.0) return 1;
  // Inversion: X = floor(log(U)/log(1-p)) + 1 on {1, 2, ...}.
  const double u = next_double_nonzero(gen);
  const double x = std::floor(std::log(u) / log1m_p_);
  return static_cast<std::uint64_t>(x) + 1;
}

}  // namespace bbb::rng
