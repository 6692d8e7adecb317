/// Boundary tests for the core/protocol.hpp helpers, chiefly ceil_div, and
/// for Protocol::run's (m, n) domain.
///
/// The textbook formulation (m + n - 1) / n wraps for m within n - 1 of
/// UINT64_MAX: (UINT64_MAX + n - 1) overflows to n - 2 and the quotient
/// collapses to zero. ceil_div is formulated as m / n + (m % n != 0), which
/// is exact over the entire uint64 domain; these tests pin that down.

#include "bbb/core/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bbb/core/protocols/registry.hpp"

namespace bbb::core {
namespace {

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();

TEST(CeilDiv, SmallValues) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(4, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
  EXPECT_EQ(ceil_div(10, 1), 10u);
}

// The old (m + n - 1) / n would wrap here: UINT64_MAX + 7 - 1 == 5 (mod
// 2^64), giving ceil_div == 0 instead of the true quotient.
TEST(CeilDiv, NoOverflowNearUint64Max) {
  EXPECT_EQ(ceil_div(kMax64, 1), kMax64);
  EXPECT_EQ(ceil_div(kMax64, 2), (kMax64 / 2) + 1);  // 2^63
  EXPECT_EQ(ceil_div(kMax64, 7), kMax64 / 7 + 1);
  EXPECT_EQ(ceil_div(kMax64 - 2, 7), (kMax64 - 2) / 7 + 1);
  // Exact division at the top of the range: 2^64 - 2^31 = (2^33 - 1) * 2^31.
  const std::uint64_t n31 = std::uint64_t{1} << 31;
  EXPECT_EQ(ceil_div(kMax64 - n31 + 1, std::uint32_t{1} << 31),
            (std::uint64_t{1} << 33) - 1);
}

TEST(CeilDiv, LargestDivisor) {
  // (2^32 - 1)^2 = 2^64 - 2^33 + 1 divides exactly by 2^32 - 1.
  const std::uint64_t square = static_cast<std::uint64_t>(kMax32) * kMax32;
  EXPECT_EQ(ceil_div(square, kMax32), kMax32);
  EXPECT_EQ(ceil_div(square + 1, kMax32), static_cast<std::uint64_t>(kMax32) + 1);
  // (2^64 - 2) / (2^32 - 1) = 2^32 remainder 2^32 - 2, so the ceiling is
  // 2^32 + 1 — representable only because ceil_div returns uint64.
  EXPECT_EQ(ceil_div(kMax64 - 1, kMax32), (std::uint64_t{1} << 32) + 1);
}

TEST(CeilDiv, AgreesWithFloatingPointOnGrid) {
  for (std::uint32_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    for (std::uint64_t m = 0; m <= 3ULL * n + 2; ++m) {
      const auto expected = static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(m) / static_cast<double>(n)));
      EXPECT_EQ(ceil_div(m, n), expected) << "m=" << m << " n=" << n;
    }
  }
}

TEST(ProtocolRun, RejectsZeroBins) {
  // n == 0 is rejected before anything binds; m == 0 is an empty
  // allocation over n bins, sharded or not.
  for (const char* spec : {"greedy[2]", "shards[2]:greedy[2]"}) {
    const auto protocol = make_protocol(spec);
    rng::Engine gen(1);
    EXPECT_THROW((void)protocol->run(10, 0, gen), std::invalid_argument) << spec;
    const AllocationResult empty = protocol->run(0, 2, gen);
    EXPECT_EQ(empty.loads, std::vector<std::uint32_t>(2, 0)) << spec;
    EXPECT_EQ(empty.balls, 0u) << spec;
    EXPECT_EQ(empty.probes, 0u) << spec;
    EXPECT_TRUE(empty.completed) << spec;
  }
}

}  // namespace
}  // namespace bbb::core
