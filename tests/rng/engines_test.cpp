#include <gtest/gtest.h>

#include <array>
#include <set>

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

TEST(Xoshiro256, JumpLeavesOriginalSequenceUntouched) {
  Xoshiro256PlusPlus base(7);
  Xoshiro256PlusPlus jumped = base;
  jumped.jump();
  // The jumped stream must not collide with the near future of the base.
  std::set<std::uint64_t> base_prefix;
  for (int i = 0; i < 1000; ++i) base_prefix.insert(base());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (base_prefix.count(jumped())) ++collisions;
  }
  EXPECT_LE(collisions, 1);
}

TEST(Xoshiro256, LongJumpDiffersFromJump) {
  Xoshiro256PlusPlus a(7), b(7);
  a.jump();
  b.long_jump();
  EXPECT_NE(a(), b());
}

TEST(Xoshiro256, MinMaxBounds) {
  EXPECT_EQ(Xoshiro256PlusPlus::min(), 0u);
  EXPECT_EQ(Xoshiro256PlusPlus::max(), ~std::uint64_t{0});
}

}  // namespace
}  // namespace bbb::rng
