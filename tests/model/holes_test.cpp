#include "bbb/model/holes.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bbb::model {
namespace {

TEST(Holes, Validation) {
  rng::Engine gen(1);
  EXPECT_THROW((void)holes_trajectory(0, 8, gen, 10), std::invalid_argument);
  EXPECT_THROW((void)holes_trajectory(10, 0, gen, 10), std::invalid_argument);
  EXPECT_THROW((void)theorem41_probe_budget(10, 0), std::invalid_argument);
}

TEST(Holes, StartsAtCapTimesNAndEndsBelowN) {
  constexpr std::uint32_t n = 64;
  constexpr std::uint64_t m = 8 * n;
  rng::Engine gen(3);
  const auto traj = holes_trajectory(m, n, gen, 1);
  ASSERT_FALSE(traj.empty());
  // First processed entry: either a placement (holes = cap*n - 1) or not.
  const std::uint32_t cap = 8 + 1;
  EXPECT_LE(traj.front().holes, static_cast<std::uint64_t>(cap) * n);
  // Endgame identity: holes = cap*n - m = n when all m are placed.
  EXPECT_EQ(traj.back().placed, m);
  EXPECT_EQ(traj.back().holes, static_cast<std::uint64_t>(cap) * n - m);
  EXPECT_EQ(traj.back().holes, n);  // m divisible by n
}

TEST(Holes, HolesAreMonotoneNonincreasing) {
  rng::Engine gen(4);
  const auto traj = holes_trajectory(320, 32, gen, 7);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i].holes, traj[i - 1].holes);
    EXPECT_GE(traj[i].placed, traj[i - 1].placed);
    EXPECT_GT(traj[i].t, traj[i - 1].t);
  }
}

TEST(Holes, PlacedPlusHolesIsInvariant) {
  constexpr std::uint32_t n = 16;
  constexpr std::uint64_t m = 100;
  rng::Engine gen(5);
  const std::uint32_t cap = (100 + 15) / 16 + 1;  // ceil + 1 = 8
  const auto traj = holes_trajectory(m, n, gen, 3);
  for (const auto& p : traj) {
    EXPECT_EQ(p.placed + p.holes, static_cast<std::uint64_t>(cap) * n);
  }
}

TEST(Holes, Theorem41BudgetForm) {
  // phi = 16, n = 1024: budget = (16 + 16^0.75 + 1) * 1024 = (17 + 8) * 1024.
  EXPECT_EQ(theorem41_probe_budget(16 * 1024, 1024), (17 + 8) * 1024u);
  // Budget is always more than m.
  EXPECT_GT(theorem41_probe_budget(500, 100), 500u);
}

TEST(Holes, FinishesWithinTheorem41BudgetTypically) {
  // The w.h.p. statement at a comfortable size: a single run with a fixed
  // seed must finish within the budget (failure probability O(n^-2)).
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 64ULL * n;
  rng::Engine gen(13);
  const auto traj = holes_trajectory(m, n, gen, 1ULL << 20);
  EXPECT_LE(traj.back().t, theorem41_probe_budget(m, n));
}

// W_t pinned at n = 1024, m = 65536 (phi = 64), seed 43, stride 8192 —
// the shape bench_appendix_poisson prints. Captured from a loop over a
// pre-drawn choice vector, so these rows also pin that the registry's
// threshold rule consumes the proof's vector C exactly.
TEST(HolesPins, Phi64Seed43Stride8192) {
  const std::vector<HolesPoint> expected = {
      {8192, 58368, 8192},
      {16384, 50176, 16384},
      {24576, 41984, 24576},
      {32768, 33792, 32768},
      {40960, 25600, 40960},
      {49152, 17450, 49110},
      {57344, 9648, 56912},
      {65536, 3789, 62771},
      {72968, 1024, 65536},
  };
  rng::Engine gen(43);
  const auto traj = holes_trajectory(65536, 1024, gen, 8192);
  ASSERT_EQ(traj.size(), expected.size());
  for (std::size_t i = 0; i < traj.size(); ++i) {
    EXPECT_EQ(traj[i].t, expected[i].t) << "row " << i;
    EXPECT_EQ(traj[i].holes, expected[i].holes) << "row " << i;
    EXPECT_EQ(traj[i].placed, expected[i].placed) << "row " << i;
  }
}

}  // namespace
}  // namespace bbb::model
