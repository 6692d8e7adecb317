#include "bbb/stats/quantile.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace bbb::stats {
namespace {

TEST(ExactQuantile, KnownValues) {
  const std::vector<double> data{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(exact_quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(data, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(exact_quantile(data, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(exact_quantile(data, 0.25), 2.0);
  // Interpolated: between 1 and 2 at q = 0.1 -> 1.4 (type-7).
  EXPECT_NEAR(exact_quantile(data, 0.1), 1.4, 1e-12);
}

TEST(ExactQuantile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(exact_quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
}

TEST(ExactQuantile, Validation) {
  EXPECT_THROW((void)exact_quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)exact_quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW((void)exact_quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(ExactQuantile, BoundariesAndSizeOne) {
  // q = 0 and q = 1 are exactly the extreme order statistics, and a
  // single-element vector is a fixed point for every q — no interpolation
  // index may step outside the data.
  const std::vector<double> data{7.0, -2.0, 11.0, 3.0};
  EXPECT_DOUBLE_EQ(exact_quantile(data, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(exact_quantile(data, 1.0), 11.0);
  for (const double q : {0.0, 0.25, 0.5, 0.9999999999999999, 1.0}) {
    EXPECT_DOUBLE_EQ(exact_quantile({42.0}, q), 42.0) << "q=" << q;
  }
  // q just below 1: interpolates inside the data, never past the end.
  const double near_one = exact_quantile(data, 0.9999999999999999);
  EXPECT_GE(near_one, 3.0);
  EXPECT_LE(near_one, 11.0);
}

TEST(ExactQuantile, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)exact_quantile({1.0, nan, 3.0}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)exact_quantile({nan}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)exact_quantile({1.0, 2.0}, nan), std::invalid_argument);
  // Infinities are ordered fine and stay legal.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(exact_quantile({-inf, 0.0, inf}, 0.5), 0.0);
}

}  // namespace
}  // namespace bbb::stats
