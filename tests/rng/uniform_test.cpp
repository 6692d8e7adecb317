#include <gtest/gtest.h>

#include <vector>

#include "bbb/rng/engine.hpp"
#include "bbb/rng/splitmix64.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/stats/hypothesis.hpp"

namespace bbb::rng {
namespace {

TEST(UniformBelow, AlwaysBelowBound) {
  Engine gen(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_below(gen, bound), bound);
    }
  }
}

TEST(UniformBelow, BoundOneAlwaysZero) {
  Engine gen(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_below(gen, 1), 0u);
}

TEST(UniformBelow, ChiSquareUniformity) {
  Engine gen(3);
  constexpr std::uint64_t kCells = 10;
  constexpr std::uint64_t kSamples = 100'000;
  std::vector<std::uint64_t> counts(kCells, 0);
  for (std::uint64_t i = 0; i < kSamples; ++i) ++counts[uniform_below(gen, kCells)];
  const std::vector<double> expected(kCells, 1.0 / kCells);
  const auto res = stats::chi_square_gof(counts, expected);
  EXPECT_GT(res.p_value, 1e-4) << "statistic=" << res.statistic;
}

TEST(UniformBelow, WorksWithSplitMix64Engine) {
  SplitMix64 gen(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(uniform_below(gen, 17), 17u);
  }
}

TEST(UniformRange, HitsBothEndpoints) {
  Engine gen(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = uniform_range(gen, 5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(UniformRange, DegenerateRange) {
  Engine gen(5);
  EXPECT_EQ(uniform_range(gen, 9, 9), 9u);
}

TEST(NextDouble, InHalfOpenUnitInterval) {
  Engine gen(6);
  for (int i = 0; i < 100'000; ++i) {
    const double u = next_double(gen);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(NextDouble, MeanIsHalf) {
  Engine gen(7);
  double acc = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) acc += next_double(gen);
  EXPECT_NEAR(acc / kN, 0.5, 0.005);
}

TEST(NextDoubleNonzero, StrictlyPositive) {
  Engine gen(8);
  for (int i = 0; i < 100'000; ++i) {
    const double u = next_double_nonzero(gen);
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(Bernoulli, ZeroAndOneAreDeterministic) {
  Engine gen(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(gen, 0.0));
    EXPECT_TRUE(bernoulli(gen, 1.0));
  }
}

TEST(Bernoulli, FrequencyTracksP) {
  Engine gen(10);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (bernoulli(gen, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

}  // namespace
}  // namespace bbb::rng
