#include "occupancy.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bbb/core/metrics.hpp"
#include "bbb/model/poissonized.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::test {
namespace {

TEST(Occupancy, Validation) {
  EXPECT_THROW((void)expected_empty_bins(1, 0), std::invalid_argument);
  EXPECT_THROW((void)bin_load_at_least(1, 0, 1), std::invalid_argument);
}

TEST(Occupancy, EmptyBinsKnownValues) {
  // m = 0: all bins empty.
  EXPECT_DOUBLE_EQ(expected_empty_bins(0, 10), 10.0);
  // m = n -> n/e asymptotically.
  EXPECT_NEAR(expected_empty_bins(10'000, 10'000), 10'000.0 / std::exp(1.0), 5.0);
}

TEST(Occupancy, LoadPmfSumsToN) {
  // Sum over k of E[#bins with load k] = n.
  constexpr std::uint64_t m = 50, n = 10;
  double total = 0;
  for (std::uint32_t k = 0; k <= m; ++k) total += expected_bins_with_load(m, n, k);
  EXPECT_NEAR(total, static_cast<double>(n), 1e-9);
}

TEST(Occupancy, BinLoadTailMonotoneInK) {
  double prev = 1.0;
  for (std::uint32_t k = 0; k <= 10; ++k) {
    const double p = bin_load_at_least(100, 10, k);
    EXPECT_LE(p, prev + 1e-15);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(bin_load_at_least(5, 10, 0), 1.0);
  EXPECT_DOUBLE_EQ(bin_load_at_least(5, 10, 6), 0.0);
}

TEST(Occupancy, SingleBinDegenerateCase) {
  EXPECT_DOUBLE_EQ(bin_load_at_least(7, 1, 7), 1.0);
  EXPECT_DOUBLE_EQ(expected_bins_with_load(7, 1, 7), 1.0);
  EXPECT_DOUBLE_EQ(expected_bins_with_load(7, 1, 3), 0.0);
}

TEST(Occupancy, UnionBoundDominatesEmpiricalMaxLoad) {
  // Pr[max >= k] <= n * Pr[Bin(m, 1/n) >= k]; check against simulation.
  constexpr std::uint64_t n = 256;
  rng::Engine gen(3);
  constexpr int kTrials = 2000;
  for (std::uint32_t k : {4u, 5u, 6u}) {
    int hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      if (core::max_load(model::exact_loads(n, n, gen)) >= k) ++hits;
    }
    const double emp = static_cast<double>(hits) / kTrials;
    const double slack = 3.0 * std::sqrt(0.25 / kTrials);
    EXPECT_LE(emp, max_load_union_bound(n, n, k) + slack) << "k=" << k;
  }
}

TEST(Occupancy, EmpiricalEmptyBinsMatchExpectation) {
  constexpr std::uint64_t n = 4096;
  rng::Engine gen(5);
  double total_empty = 0;
  constexpr int kTrials = 50;
  for (int t = 0; t < kTrials; ++t) {
    total_empty += static_cast<double>(core::empty_bins(model::exact_loads(n, n, gen)));
  }
  EXPECT_NEAR(total_empty / kTrials, expected_empty_bins(n, n),
              4.0 * std::sqrt(static_cast<double>(n)));
}

TEST(Occupancy, OverflowMassBounds) {
  EXPECT_DOUBLE_EQ(expected_overflow_mass(0, 10, 2), 0.0);
  const double p = expected_overflow_mass(100, 10, 12);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  // Everything overflows at k = 0... but k=0 counts all balls.
  EXPECT_NEAR(expected_overflow_mass(100, 10, 0), 1.0, 1e-9);
}

}  // namespace
}  // namespace bbb::test
