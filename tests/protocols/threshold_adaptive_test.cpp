/// Paper-specific properties of the two core protocols:
///   * the max-load guarantee ceil(m/n) + 1 (both, by construction)
///   * the integer acceptance rule == the paper's real-valued rule
///   * adaptive's bound evolves as ceil(i/n), threshold's is fixed
///   * slack-0 variants achieve the perfectly tight bound ceil(m/n)
///   * allocation-time behaviour (statistical, generous margins)

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/theory/bounds.hpp"

namespace bbb::core {
namespace {

BoundedProbeRule adaptive_rule(std::uint32_t n) {
  return BoundedProbeRule(n, {.clock = BoundClock::kPlaced}, "adaptive");
}

BoundedProbeRule threshold_rule(std::uint32_t n, std::uint64_t m,
                                std::uint32_t slack = 1) {
  return BoundedProbeRule(n, {.clock = BoundClock::kFixed, .slack = slack, .arg = m},
                          "threshold");
}

// ----------------------------------------------------- integer-rule identity

// The paper's rule for ball i: accept bin with load < i/n + 1 (reals).
// Our hot loop: accept iff load <= ceil(i/n). Verify equivalence exhaustively
// over a grid of (i, n, load).
TEST(IntegerRule, MatchesRealValuedDefinition) {
  for (std::uint32_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    for (std::uint64_t i = 1; i <= 3ULL * n + 2; ++i) {
      const auto bound = static_cast<std::uint32_t>(ceil_div(i, n));
      for (std::uint32_t load = 0; load <= bound + 2; ++load) {
        const bool real_rule =
            static_cast<double>(load) < static_cast<double>(i) / n + 1.0;
        const bool int_rule = load <= bound;
        ASSERT_EQ(real_rule, int_rule) << "i=" << i << " n=" << n << " load=" << load;
      }
    }
  }
}

TEST(IntegerRule, CeilDivKnownValues) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
  EXPECT_EQ(ceil_div(10, 1), 10u);
}

// ------------------------------------------------------- max-load guarantee

struct Shape {
  std::uint64_t m;
  std::uint32_t n;
  std::uint64_t seed;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << "m=" << s.m << ",n=" << s.n << ",seed=" << s.seed;
}

class MaxLoadGuaranteeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(MaxLoadGuaranteeTest, AdaptiveNeverExceedsCeilPlusOne) {
  const auto& [m, n, seed] = GetParam();
  rng::Engine gen(seed);
  const AllocationResult res = make_protocol("adaptive")->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
}

TEST_P(MaxLoadGuaranteeTest, ThresholdNeverExceedsCeilPlusOne) {
  const auto& [m, n, seed] = GetParam();
  rng::Engine gen(seed);
  const AllocationResult res = make_protocol("threshold")->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
}

TEST_P(MaxLoadGuaranteeTest, SlackZeroAchievesPerfectBound) {
  const auto& [m, n, seed] = GetParam();
  if (m == 0) GTEST_SKIP();
  rng::Engine gen(seed);
  const AllocationResult res = make_protocol("adaptive[0]")->run(m, n, gen);
  EXPECT_EQ(max_load(res.loads), ceil_div(m, n));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, MaxLoadGuaranteeTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{100, 10, 2}, Shape{101, 10, 3},
                      Shape{999, 10, 4}, Shape{1000, 1000, 5}, Shape{5000, 64, 6},
                      Shape{64, 4096, 7}, Shape{12345, 67, 8}, Shape{4096, 17, 9},
                      Shape{100000, 100, 10}));

// -------------------------------------------------------- adaptive mechanics

TEST(Adaptive, BoundStartsAtSlackAndBumpsPerStage) {
  BinState state(4);
  BoundedProbeRule rule = adaptive_rule(4);
  rng::Engine gen(3);
  EXPECT_EQ(rule.accept_bound(state), 1u);  // balls 1..4: ceil(i/4) = 1
  for (int i = 0; i < 4; ++i) rule.place_one(state, gen);
  EXPECT_EQ(rule.accept_bound(state), 2u);  // balls 5..8: ceil(i/4) = 2
  for (int i = 0; i < 4; ++i) rule.place_one(state, gen);
  EXPECT_EQ(rule.accept_bound(state), 3u);
}

TEST(Adaptive, EveryPrefixRespectsItsOwnBound) {
  // Strictly stronger than the final-load test: after every single ball i,
  // no bin may exceed ceil(i/n) + 1.
  constexpr std::uint32_t n = 16;
  BinState state(n);
  BoundedProbeRule rule = adaptive_rule(n);
  rng::Engine gen(11);
  for (std::uint64_t i = 1; i <= 20 * n; ++i) {
    rule.place_one(state, gen);
    const auto cap = static_cast<std::uint32_t>(ceil_div(i, n) + 1);
    for (std::uint32_t b = 0; b < n; ++b) {
      ASSERT_LE(state.load(b), cap) << "after ball " << i;
    }
  }
}

TEST(Adaptive, StreamingMatchesBatchProtocol) {
  constexpr std::uint32_t n = 32;
  constexpr std::uint64_t m = 500;
  rng::Engine g1(21), g2(21);
  BinState state(n);
  BoundedProbeRule rule = adaptive_rule(n);
  for (std::uint64_t i = 0; i < m; ++i) rule.place_one(state, g1);
  const AllocationResult batch = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_EQ(state.loads(), batch.loads);
  EXPECT_EQ(rule.probes(), batch.probes);
}

TEST(Adaptive, RejectsZeroBins) {
  // The shared BinState owns the n > 0 invariant for every rule.
  EXPECT_THROW(BinState(0), std::invalid_argument);
  rng::Engine gen(1);
  EXPECT_THROW((void)make_protocol("adaptive")->run(10, 0, gen), std::invalid_argument);
}

// ------------------------------------------------------- threshold mechanics

TEST(Threshold, AcceptBoundIsCeilOfAverage) {
  const BinState state(10);
  EXPECT_EQ(threshold_rule(10, 100).accept_bound(state), 10u);
  EXPECT_EQ(threshold_rule(10, 101).accept_bound(state), 11u);
  EXPECT_EQ(threshold_rule(10, 100, 2).accept_bound(state), 11u);
  EXPECT_EQ(threshold_rule(10, 100, 0).accept_bound(state), 9u);
  // The fixed clock is m - 1 whatever has been placed.
  EXPECT_EQ(threshold_rule(10, 100).clock(state), 99u);
}

TEST(Threshold, DeadlockedBoundThrowsInsteadOfSpinning) {
  // slack 0 over m = n accepts only empty bins: once every bin holds a
  // ball the fixed bound can never admit another, and the rule reports
  // the deadlock in O(1) rather than probing forever.
  BinState state(2);
  BoundedProbeRule rule = threshold_rule(2, 2, 0);
  rng::Engine gen(5);
  rule.place_one(state, gen);
  rule.place_one(state, gen);
  EXPECT_EQ(state.max_load(), 1u);
  EXPECT_THROW(rule.place_one(state, gen), std::logic_error);
  // A departure re-opens capacity (the dynamic reading of the bound).
  state.remove_ball(0);
  EXPECT_NO_THROW(rule.place_one(state, gen));
}

TEST(Threshold, SlackZeroRejectedOnlyForZeroM) {
  EXPECT_THROW(threshold_rule(4, 0, 0), std::invalid_argument);
  EXPECT_NO_THROW(threshold_rule(4, 4, 0));
}

TEST(Threshold, SlackZeroGivesPerfectlyFlatLoad) {
  constexpr std::uint32_t n = 64;
  constexpr std::uint64_t m = 4 * n;
  rng::Engine gen(9);
  const AllocationResult res = make_protocol("threshold[0]")->run(m, n, gen);
  for (std::uint32_t l : res.loads) EXPECT_EQ(l, 4u);
}

// -------------------------------------------------- allocation-time behaviour

TEST(AllocationTime, ThresholdCloseToM) {
  // Theorem 4.1: probes = m + O(m^{3/4} n^{1/4}). With m = 64n the overhead
  // is a few percent; allow a generous factor 8 on the scale term.
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 64ULL * n;
  rng::Engine gen(13);
  const AllocationResult res = make_protocol("threshold")->run(m, n, gen);
  EXPECT_GE(res.probes, m);
  const double overhead = static_cast<double>(res.probes - m);
  EXPECT_LE(overhead, 8.0 * theory::threshold_overhead_scale(m, n))
      << "probes=" << res.probes;
}

TEST(AllocationTime, AdaptiveLinearInM) {
  // Theorem 3.1: E[T] = O(m). Empirically probes/m is a small constant
  // (~2.1 at phi = 16); assert a loose ceiling of 8.
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 16ULL * n;
  rng::Engine gen(14);
  const AllocationResult res = make_protocol("adaptive")->run(m, n, gen);
  const double per_ball = static_cast<double>(res.probes) / static_cast<double>(m);
  EXPECT_GE(per_ball, 1.0);
  EXPECT_LE(per_ball, 8.0);
}

TEST(AllocationTime, SlackZeroAdaptivePaysCouponCollector) {
  // With slack 0 each stage is a coupon collector: Theta(n log n) per stage,
  // i.e. probes/m = Theta(log n) rather than O(1).
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 8ULL * n;
  rng::Engine gen(15);
  const AllocationResult tight = make_protocol("adaptive[0]")->run(m, n, gen);
  const double per_ball = static_cast<double>(tight.probes) / static_cast<double>(m);
  // H_n ~ ln(1024) ~ 6.9; the per-stage cost is ~ n*H_n / n. Allow wide band.
  EXPECT_GE(per_ball, 3.0);
  EXPECT_LE(per_ball, 14.0);
}

// ----------------------------------------------------------- smoothness gap

TEST(Smoothness, AdaptiveGapIsLogarithmic) {
  // Corollary 3.5: gap = O(log n) w.h.p. Allow constant 6 over ln n + slack.
  constexpr std::uint32_t n = 1 << 12;
  constexpr std::uint64_t m = 32ULL * n;
  rng::Engine gen(16);
  const AllocationResult res = make_protocol("adaptive")->run(m, n, gen);
  const double gap = load_gap(res.loads);
  EXPECT_LE(gap, 6.0 * std::log(static_cast<double>(n)) + 4.0);
}

TEST(Smoothness, ThresholdGapGrowsWithHeavyLoad) {
  // Lemma 4.2 regime (m = n^2 scaled down): threshold leaves deep holes, so
  // its gap must clearly exceed adaptive's on the same instance size.
  constexpr std::uint32_t n = 256;
  constexpr std::uint64_t m = static_cast<std::uint64_t>(n) * n;
  rng::Engine g1(17), g2(17);
  const AllocationResult th = make_protocol("threshold")->run(m, n, g1);
  const AllocationResult ad = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_GT(load_gap(th.loads), 2 * load_gap(ad.loads));
}

}  // namespace
}  // namespace bbb::core
