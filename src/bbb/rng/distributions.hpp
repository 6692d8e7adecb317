#pragma once
/// \file distributions.hpp
/// Non-uniform samplers used by the simulator and by the Poissonization
/// experiments (the paper's proofs approximate bin access counts by
/// independent Poisson variables; Lemma A.7 transfers events between the two
/// models — we sample both models directly).
///
/// Design: each distribution is a small immutable parameter object whose
/// `operator()(Engine&)` draws one variate. Heavy per-parameter setup
/// (exp(-lambda), rejection constants) happens once in the constructor, so
/// drawing many variates from one distribution object is cheap.

#include <cstdint>
#include <stdexcept>

#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::rng {

/// Standard normal via the Marsaglia polar method. Stateless between draws
/// (the spare variate is *not* cached so that draws from a shared const
/// object are thread-safe).
class NormalDist {
 public:
  /// \throws std::invalid_argument if stddev <= 0.
  NormalDist(double mean, double stddev);

  double operator()(Engine& gen) const;

  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double stddev() const noexcept { return stddev_; }

 private:
  double mean_;
  double stddev_;
};

/// Poisson(lambda). Inversion by sequential search for lambda < 10,
/// Hörmann's PTRS transformed-rejection for large lambda (O(1) expected
/// time for any lambda; exact, not a normal approximation).
class PoissonDist {
 public:
  /// \throws std::invalid_argument if lambda < 0 or not finite.
  explicit PoissonDist(double lambda);

  std::uint64_t operator()(Engine& gen) const;

  [[nodiscard]] double lambda() const noexcept { return lambda_; }

  /// P(X = k) for this distribution (used by goodness-of-fit tests).
  [[nodiscard]] double pmf(std::uint64_t k) const;
  /// P(X <= k).
  [[nodiscard]] double cdf(std::uint64_t k) const;
  /// Survival function P(X >= k), accurate to full relative precision even
  /// deep in the tail where 1 - cdf(k-1) would cancel to zero: the head is
  /// summed directly, the tail by the convergent series
  /// pmf(k) * (1 + lambda/(k+1) + lambda^2/((k+1)(k+2)) + ...). The law
  /// tier's level-by-level cardinality sampler conditions on exactly these
  /// tail probabilities (law/one_choice.hpp).
  [[nodiscard]] double sf(std::uint64_t k) const;

 private:
  std::uint64_t sample_inversion(Engine& gen) const;
  std::uint64_t sample_ptrs(Engine& gen) const;

  double lambda_;
  // Inversion path (small lambda).
  double exp_neg_lambda_ = 0.0;
  // PTRS path (large lambda).
  double b_ = 0.0, a_ = 0.0, inv_alpha_ = 0.0, v_r_ = 0.0, log_lambda_ = 0.0;
  bool use_ptrs_ = false;
};

/// Binomial(n, p). Inversion (BINV) when n*min(p,1-p) < 10, otherwise
/// Hörmann's BTRS transformed rejection. Exact for all parameters.
class BinomialDist {
 public:
  /// \throws std::invalid_argument if p is outside [0, 1].
  BinomialDist(std::uint64_t n, double p);

  std::uint64_t operator()(Engine& gen) const;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double p() const noexcept { return p_; }

  /// P(X = k).
  [[nodiscard]] double pmf(std::uint64_t k) const;

 private:
  std::uint64_t sample_inversion(Engine& gen) const;
  std::uint64_t sample_btrs(Engine& gen) const;

  std::uint64_t n_;
  double p_;        // original p
  double pp_;       // min(p, 1-p) — sampling always uses the small side
  bool flipped_;    // true if pp_ != p_, result is n - k
  // BINV path.
  double s_ = 0.0, q_pow_n_ = 0.0;
  // BTRS path.
  double spq_ = 0.0, b_ = 0.0, a_ = 0.0, c_ = 0.0, vr_ = 0.0, alpha_ = 0.0,
         lpq_ = 0.0, h_ = 0.0;
  double m_ = 0.0;  // mode, floor((n+1)*pp)
  bool use_btrs_ = false;
};

/// Geometric(p) on {1, 2, 3, ...}: number of Bernoulli(p) trials up to and
/// including the first success. E[X] = 1/p. This is the convention used in
/// the paper's Theorem A.5 (sum of geometric probe counts).
class GeometricDist {
 public:
  /// \throws std::invalid_argument if p is outside (0, 1].
  explicit GeometricDist(double p);

  std::uint64_t operator()(Engine& gen) const;

  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] double mean() const noexcept { return 1.0 / p_; }

 private:
  double p_;
  double log1m_p_;  // log(1 - p); 0 means p == 1 (always returns 1)
};

}  // namespace bbb::rng
