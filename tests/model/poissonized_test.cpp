#include "bbb/model/poissonized.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "bbb/core/metrics.hpp"

namespace bbb::model {
namespace {

TEST(Poissonized, ExactLoadsConserveBalls) {
  rng::Engine gen(1);
  const auto loads = exact_loads(1000, 64, gen);
  ASSERT_EQ(loads.size(), 64u);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}), 1000u);
}

TEST(Poissonized, PoissonLoadsHaveRightMean) {
  rng::Engine gen(2);
  double total = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    const auto loads = poissonized_loads(5.0, 256, gen);
    total += std::accumulate(loads.begin(), loads.end(), 0.0);
  }
  EXPECT_NEAR(total / (kTrials * 256.0), 5.0, 0.1);
}

TEST(Poissonized, EstimatorsReturnProbabilities) {
  rng::Engine gen(3);
  const auto event = [](const std::vector<std::uint32_t>& loads) {
    return core::max_load(loads) >= 3;
  };
  const double pe = estimate_exact_probability(256, 256, 200, gen, event);
  const double pp = estimate_poisson_probability(256, 256, 200, gen, event);
  EXPECT_GE(pe, 0.0);
  EXPECT_LE(pe, 1.0);
  EXPECT_GE(pp, 0.0);
  EXPECT_LE(pp, 1.0);
}

// Lemma A.7(2): for events increasing in the number of balls (here:
// max load >= k), Pr_exact[A] <= 4 * Pr_poisson[A]. Checked at several
// thresholds with enough trials that sampling noise cannot flip the factor.
class LemmaA7Test : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LemmaA7Test, IncreasingEventTransfer) {
  const std::uint32_t k = GetParam();
  rng::Engine gen(100 + k);
  constexpr std::uint32_t kN = 128;
  constexpr std::uint32_t kTrials = 3000;
  const auto event = [k](const std::vector<std::uint32_t>& loads) {
    return core::max_load(loads) >= k;
  };
  const double pe = estimate_exact_probability(kN, kN, kTrials, gen, event);
  const double pp = estimate_poisson_probability(kN, kN, kTrials, gen, event);
  // Allow 3-sigma slack on both estimates.
  const double slack = 3.0 * std::sqrt(0.25 / kTrials);
  EXPECT_LE(pe - slack, 4.0 * (pp + slack)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(MaxLoadThresholds, LemmaA7Test, ::testing::Values(3u, 4u, 5u));

// In the Poisson model the loads are independent, so the exact and Poisson
// max-load distributions must be close — KS on the max statistic (they are
// not identical, but at m = n the asymptotic distributions coincide).
TEST(Poissonized, MaxLoadDistributionsAgreeRoughly) {
  rng::Engine gen(7);
  constexpr std::uint32_t kN = 512;
  constexpr int kTrials = 400;
  double mean_exact = 0, mean_poisson = 0;
  for (int t = 0; t < kTrials; ++t) {
    mean_exact += core::max_load(exact_loads(kN, kN, gen));
    mean_poisson += core::max_load(poissonized_loads(1.0, kN, gen));
  }
  mean_exact /= kTrials;
  mean_poisson /= kTrials;
  EXPECT_NEAR(mean_exact, mean_poisson, 0.35);
}

}  // namespace
}  // namespace bbb::model
