#include "bbb/rng/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bbb/stats/hypothesis.hpp"
#include "bbb/stats/running_stats.hpp"

namespace bbb::rng {
namespace {

// ----------------------------------------------------------------- validation

TEST(DistValidation, NormalRejectsBadStddev) {
  EXPECT_THROW(NormalDist(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(NormalDist(0.0, -2.0), std::invalid_argument);
  EXPECT_NO_THROW(NormalDist(-5.0, 3.0));
}

TEST(DistValidation, PoissonRejectsBadLambda) {
  EXPECT_THROW(PoissonDist(-0.1), std::invalid_argument);
  EXPECT_NO_THROW(PoissonDist(0.0));
  EXPECT_NO_THROW(PoissonDist(1e6));
}

TEST(DistValidation, BinomialRejectsBadP) {
  EXPECT_THROW(BinomialDist(10, -0.1), std::invalid_argument);
  EXPECT_THROW(BinomialDist(10, 1.1), std::invalid_argument);
  EXPECT_NO_THROW(BinomialDist(0, 0.5));
}

TEST(DistValidation, GeometricRejectsBadP) {
  EXPECT_THROW(GeometricDist(0.0), std::invalid_argument);
  EXPECT_THROW(GeometricDist(1.5), std::invalid_argument);
  EXPECT_NO_THROW(GeometricDist(1.0));
}

// --------------------------------------------------------------------- normal

TEST(Normal, MomentsMatch) {
  Engine gen(102);
  NormalDist dist(3.0, 2.0);
  stats::RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.add(dist(gen));
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

// -------------------------------------------------------------------- poisson

TEST(Poisson, ZeroLambdaAlwaysZero) {
  Engine gen(103);
  PoissonDist dist(0.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist(gen), 0u);
}

TEST(Poisson, PmfSumsToOne) {
  PoissonDist dist(4.2);
  double total = 0;
  for (std::uint64_t k = 0; k <= 60; ++k) total += dist.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Poisson, CdfIsMonotone) {
  PoissonDist dist(7.0);
  double prev = 0.0;
  for (std::uint64_t k = 0; k <= 30; ++k) {
    const double c = dist.cdf(k);
    EXPECT_GE(c, prev - 1e-15);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

// GOF across the inversion / PTRS boundary. One lambda per regime.
class PoissonGofTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonGofTest, ChiSquareFitsPmf) {
  const double lambda = GetParam();
  Engine gen(static_cast<std::uint64_t>(lambda * 1000) + 7);
  PoissonDist dist(lambda);
  const auto res = stats::chi_square_fit_discrete(
      [&] { return dist(gen); }, [&](std::uint64_t k) { return dist.pmf(k); },
      100'000, static_cast<std::uint64_t>(lambda + 8 * std::sqrt(lambda) + 10));
  EXPECT_GT(res.p_value, 1e-4) << "lambda=" << lambda << " stat=" << res.statistic;
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeLambda, PoissonGofTest,
                         ::testing::Values(0.5, 2.0, 9.9,      // inversion path
                                           10.1, 42.0, 199.0 / 198.0 * 50,
                                           500.0));            // PTRS path

TEST(Poisson, MeanAndVarianceEqualLambda) {
  Engine gen(104);
  PoissonDist dist(25.0);
  stats::RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.add(static_cast<double>(dist(gen)));
  EXPECT_NEAR(s.mean(), 25.0, 0.1);
  EXPECT_NEAR(s.variance(), 25.0, 0.5);
}

// ------------------------------------------------------------------- binomial

TEST(Binomial, EdgeCases) {
  Engine gen(105);
  BinomialDist zero_n(0, 0.5);
  EXPECT_EQ(zero_n(gen), 0u);
  BinomialDist p0(100, 0.0);
  EXPECT_EQ(p0(gen), 0u);
  BinomialDist p1(100, 1.0);
  EXPECT_EQ(p1(gen), 100u);
}

TEST(Binomial, PmfSumsToOne) {
  BinomialDist dist(30, 0.37);
  double total = 0;
  for (std::uint64_t k = 0; k <= 30; ++k) total += dist.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

class BinomialGofTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialGofTest, ChiSquareFitsPmf) {
  const auto [n, p] = GetParam();
  Engine gen(n * 31 + 17);
  BinomialDist dist(n, p);
  const auto res = stats::chi_square_fit_discrete(
      [&] { return dist(gen); }, [&](std::uint64_t k) { return dist.pmf(k); },
      100'000, n + 1);
  EXPECT_GT(res.p_value, 1e-4) << "n=" << n << " p=" << p << " stat=" << res.statistic;
}

INSTANTIATE_TEST_SUITE_P(InversionAndBtrs, BinomialGofTest,
                         ::testing::Values(BinomialCase{20, 0.1},   // BINV
                                           BinomialCase{20, 0.9},   // BINV, flipped
                                           BinomialCase{50, 0.5},   // BTRS
                                           BinomialCase{200, 0.3},  // BTRS
                                           BinomialCase{200, 0.97}  // BTRS, flipped
                                           ));

TEST(Binomial, NeverExceedsN) {
  Engine gen(106);
  BinomialDist dist(37, 0.8);
  for (int i = 0; i < 20'000; ++i) EXPECT_LE(dist(gen), 37u);
}

// ------------------------------------------------------------------ geometric

TEST(Geometric, AlwaysAtLeastOne) {
  Engine gen(107);
  GeometricDist dist(0.3);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(dist(gen), 1u);
}

TEST(Geometric, PEqualOneAlwaysOne) {
  Engine gen(108);
  GeometricDist dist(1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist(gen), 1u);
}

TEST(Geometric, MeanIsInverseP) {
  Engine gen(109);
  GeometricDist dist(0.25);
  stats::RunningStats s;
  for (int i = 0; i < 200'000; ++i) s.add(static_cast<double>(dist(gen)));
  EXPECT_NEAR(s.mean(), 4.0, 0.05);
}

// ------------------------------------------------------- Poisson survival sf

TEST(PoissonSf, MatchesCdfComplementAtModerateLambda) {
  for (const double lambda : {0.5, 1.0, 4.0, 20.0}) {
    const PoissonDist dist(lambda);
    for (std::uint64_t k = 1; k <= 40; ++k) {
      EXPECT_NEAR(dist.sf(k), 1.0 - dist.cdf(k - 1), 1e-12)
          << "lambda " << lambda << " k " << k;
    }
  }
}

TEST(PoissonSf, EdgeCases) {
  EXPECT_DOUBLE_EQ(PoissonDist(3.0).sf(0), 1.0);  // P(X >= 0) is certain
  EXPECT_DOUBLE_EQ(PoissonDist(0.0).sf(0), 1.0);
  EXPECT_DOUBLE_EQ(PoissonDist(0.0).sf(1), 0.0);  // lambda 0 never moves
  EXPECT_DOUBLE_EQ(PoissonDist(0.0).sf(100), 0.0);
}

TEST(PoissonSf, MonotoneNonIncreasingInK) {
  const PoissonDist dist(7.5);
  double prev = 1.0;
  for (std::uint64_t k = 0; k <= 60; ++k) {
    const double s = dist.sf(k);
    EXPECT_LE(s, prev + 1e-15) << "k " << k;
    EXPECT_GE(s, 0.0);
    prev = s;
  }
}

// Deep in the right tail 1 - cdf cancels to garbage; sf must instead agree
// with the positive-term identity sf(k) = pmf(k) (1 + lambda/(k+1) + ...),
// which is bracketed by pmf(k) and pmf(k) / (1 - lambda/(k+1)).
TEST(PoissonSf, DeepTailKeepsRelativePrecision) {
  const PoissonDist dist(1.0);
  for (const std::uint64_t k : {50ull, 100ull, 140ull}) {
    const double s = dist.sf(k);
    const double p = dist.pmf(k);
    EXPECT_GT(s, 0.0) << "k " << k;
    EXPECT_GE(s, p);
    EXPECT_LE(s, p / (1.0 - 1.0 / static_cast<double>(k + 1)) * (1.0 + 1e-12));
  }
}

// The law tier's regime: lambda in the millions. The median sits within
// O(1) of lambda (sf(lambda) ~ 1/2) and the tails keep full precision
// without the O(lambda) term-by-term cdf walk ever running.
TEST(PoissonSf, HugeLambdaIsFastAndCalibrated) {
  const double lambda = 1048576.0;  // 2^20
  const PoissonDist dist(lambda);
  EXPECT_NEAR(dist.sf(1 << 20), 0.5, 0.01);
  // Six sigma out: compare against the normal tail by order of magnitude.
  const std::uint64_t k6 = (1 << 20) + 6 * 1024;
  const double s6 = dist.sf(k6);
  EXPECT_GT(s6, 1e-12);
  EXPECT_LT(s6, 1e-8);  // Phi(-6) ~ 1e-9
  // And the identity sf + cdf = 1 holds through the bulk.
  EXPECT_NEAR(dist.sf(k6) + dist.cdf(k6 - 1), 1.0, 1e-9);
}

TEST(Geometric, ChiSquareFitsPmf) {
  Engine gen(110);
  GeometricDist dist(0.4);
  // Support starts at 1; pass pmf(k) with pmf(0) = 0.
  const auto res = stats::chi_square_fit_discrete(
      [&] { return dist(gen); },
      [&](std::uint64_t k) {
        if (k == 0) return 0.0;
        return 0.4 * std::pow(0.6, static_cast<double>(k - 1));
      },
      100'000, 25);
  EXPECT_GT(res.p_value, 1e-4) << "stat=" << res.statistic;
}

}  // namespace
}  // namespace bbb::rng
