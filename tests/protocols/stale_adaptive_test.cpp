#include <gtest/gtest.h>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

BoundedProbeRule stale_rule(std::uint32_t n, std::uint32_t delta) {
  return BoundedProbeRule(n, {.clock = BoundClock::kStale, .arg = delta},
                          "stale-adaptive[" + std::to_string(delta) + "]");
}

TEST(StaleAdaptive, Validation) {
  EXPECT_THROW(stale_rule(0, 1), std::invalid_argument);
  EXPECT_THROW(stale_rule(8, 0), std::invalid_argument);
  EXPECT_THROW(stale_rule(8, 9), std::invalid_argument);  // delta > n
  EXPECT_THROW((void)make_protocol("stale-adaptive[0]"), std::invalid_argument);
}

TEST(StaleAdaptive, DeltaOneIsExactlyAdaptive) {
  // With a counter published after every ball the stale protocol *is*
  // adaptive — bit-identical on the same engine.
  constexpr std::uint32_t n = 64;
  constexpr std::uint64_t m = 1000;
  rng::Engine g1(5), g2(5);
  const auto stale = make_protocol("stale-adaptive[1]")->run(m, n, g1);
  const auto fresh = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_EQ(stale.loads, fresh.loads);
  EXPECT_EQ(stale.probes, fresh.probes);
}

class StaleDeltaTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StaleDeltaTest, MaxLoadGuaranteeSurvivesStaleness) {
  const std::uint32_t delta = GetParam();
  constexpr std::uint32_t n = 256;
  constexpr std::uint64_t m = 16ULL * n + 37;  // non-divisible
  rng::Engine gen(delta * 13 + 1);
  const auto res =
      make_protocol("stale-adaptive[" + std::to_string(delta) + "]")->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
  std::uint64_t total = 0;
  for (auto l : res.loads) total += l;
  EXPECT_EQ(total, m);
}

TEST_P(StaleDeltaTest, StalenessUpToAStageIsFree) {
  // The acceptance bound ceil(i/n) is constant within a stage, so a counter
  // lagging < n balls computes the same bound for every ball: the stale
  // run must be *bit-identical* to the fresh one, for every delta <= n.
  const std::uint32_t delta = GetParam();
  constexpr std::uint32_t n = 256;
  constexpr std::uint64_t m = 16ULL * n;
  rng::Engine g1(7), g2(7);
  const auto stale =
      make_protocol("stale-adaptive[" + std::to_string(delta) + "]")->run(m, n, g1);
  const auto fresh = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_EQ(stale.probes, fresh.probes) << "delta=" << delta;
  EXPECT_EQ(stale.loads, fresh.loads) << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, StaleDeltaTest,
                         ::testing::Values(1u, 4u, 32u, 128u, 256u));

TEST(StaleAdaptive, BoundLagsPublication) {
  constexpr std::uint32_t n = 8;
  BinState state(n);
  BoundedProbeRule rule = stale_rule(n, 8);  // publish once per stage
  rng::Engine gen(3);
  EXPECT_EQ(rule.accept_bound(state), 1u);
  for (int i = 0; i < 7; ++i) {
    (void)rule.place_one(state, gen);
    EXPECT_EQ(rule.clock(state), 0u);  // not yet published
    EXPECT_EQ(rule.accept_bound(state), 1u);
  }
  (void)rule.place_one(state, gen);  // 8th ball triggers publication
  EXPECT_EQ(rule.clock(state), 8u);
  EXPECT_EQ(rule.accept_bound(state), 2u);
}

TEST(StaleAdaptive, NamesRoundTrip) {
  EXPECT_EQ(make_protocol("stale-adaptive[16]")->name(), "stale-adaptive[16]");
}

TEST(StaleAdaptive, OncePerStageBroadcastIsIdenticalAtScale) {
  // The boundary case delta = n (one broadcast per stage) at a larger size:
  // still exactly the paper's protocol.
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 8ULL * n;
  rng::Engine g1(9), g2(9);
  const auto lazy =
      make_protocol("stale-adaptive[" + std::to_string(n) + "]")->run(m, n, g1);
  const auto fresh = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_EQ(lazy.probes, fresh.probes);
  EXPECT_EQ(lazy.loads, fresh.loads);
}

}  // namespace
}  // namespace bbb::core
