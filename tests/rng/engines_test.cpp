#include <gtest/gtest.h>

#include <array>

#include "bbb/rng/xoshiro256.hpp"

namespace bbb::rng {
namespace {

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256PlusPlus a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, SeedsProduceDistinctStreams) {
  Xoshiro256PlusPlus a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);  // coincidences are ~2^-64 each
}

TEST(Xoshiro256, ExplicitStateRoundTrips) {
  const std::array<std::uint64_t, 4> state{1, 2, 3, 4};
  Xoshiro256PlusPlus a(state), b(state);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, MinMaxBounds) {
  EXPECT_EQ(Xoshiro256PlusPlus::min(), 0u);
  EXPECT_EQ(Xoshiro256PlusPlus::max(), ~std::uint64_t{0});
}

}  // namespace
}  // namespace bbb::rng
