#include <gtest/gtest.h>

#include <numeric>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

BoundedProbeRule doubling_rule(std::uint32_t n, std::uint64_t initial_guess = 0) {
  return BoundedProbeRule(n, {.clock = BoundClock::kDoubling, .arg = initial_guess},
                          "doubling-threshold[" + std::to_string(initial_guess) + "]");
}

TEST(DoublingThreshold, Validation) {
  EXPECT_THROW(doubling_rule(0), std::invalid_argument);
}

// The clock is G - 1 for the guess G in force for the next ball.
TEST(DoublingThreshold, GuessDefaultsToN) {
  const BinState state(64);
  const BoundedProbeRule rule = doubling_rule(64);
  EXPECT_EQ(rule.clock(state), 64u - 1);
  EXPECT_EQ(rule.accept_bound(state), 1u);
}

TEST(DoublingThreshold, GuessDoublesWhenExhausted) {
  constexpr std::uint32_t n = 16;
  BinState state(n);
  BoundedProbeRule rule = doubling_rule(n);
  rng::Engine gen(3);
  for (std::uint32_t i = 0; i + 1 < n; ++i) (void)rule.place_one(state, gen);
  EXPECT_EQ(rule.clock(state), n - 1);  // ball n still runs under guess n
  EXPECT_EQ(rule.accept_bound(state), 1u);
  (void)rule.place_one(state, gen);
  EXPECT_EQ(rule.clock(state), 2 * n - 1);  // n placed: ball n + 1 doubles it
  EXPECT_EQ(rule.accept_bound(state), 2u);
}

TEST(DoublingThreshold, FirstBoundMustFitInUint32) {
  // At n = 1 the first bound is the guess itself. A guess of 2^32 used to
  // narrow to a bound of 0 and hang the first ball; it is rejected at
  // bind, and 2^32 - 1 is the largest guess that binds.
  EXPECT_THROW((void)make_rule("doubling-threshold[4294967296]", 1),
               std::invalid_argument);
  const auto rule = make_rule("doubling-threshold[4294967295]", 1);
  const BinState state(1);
  EXPECT_EQ(dynamic_cast<const BoundedProbeRule&>(*rule).accept_bound(state),
            4294967295u);
  rng::Engine gen(1);
  EXPECT_THROW((void)make_protocol("doubling-threshold[4294967296]")->run(4, 1, gen),
               std::invalid_argument);
}

TEST(DoublingThreshold, ConservesBalls) {
  rng::Engine gen(5);
  const auto res = make_protocol("doubling-threshold")->run(1000, 33, gen);
  EXPECT_EQ(std::accumulate(res.loads.begin(), res.loads.end(), std::uint64_t{0}),
            1000u);
}

TEST(DoublingThreshold, MaxLoadBoundedByFinalGuess) {
  // The bound the scheme actually guarantees: ceil(M_final/n) + 1 where
  // M_final < 2m (for m >= initial guess).
  constexpr std::uint32_t n = 128;
  for (std::uint64_t m : {150ULL * n / 100, 3ULL * n, 9ULL * n / 2}) {
    rng::Engine gen(m);
    const auto res = make_protocol("doubling-threshold")->run(m, n, gen);
    EXPECT_LE(max_load(res.loads), ceil_div(2 * m, n) + 1) << "m=" << m;
  }
}

TEST(DoublingThreshold, LosesOptimalLoadPastDoublingBoundary) {
  // m just past a doubling boundary: the current guess is ~2m, so the
  // acceptance bound is ~2m/n and the realized max load clearly exceeds
  // adaptive's ceil(m/n)+1 — the design failure adaptive exists to fix.
  constexpr std::uint32_t n = 1 << 10;
  const std::uint64_t m = 8ULL * n + n / 4;  // just past guess 8n
  rng::Engine g1(7), g2(7);
  const auto doubling = make_protocol("doubling-threshold")->run(m, n, g1);
  const auto adapt = make_protocol("adaptive")->run(m, n, g2);
  EXPECT_LE(max_load(adapt.loads), ceil_div(m, n) + 1);
  EXPECT_GT(max_load(doubling.loads), ceil_div(m, n) + 1);
}

TEST(DoublingThreshold, AllocationTimeStaysLinear) {
  constexpr std::uint32_t n = 1 << 10;
  constexpr std::uint64_t m = 20ULL * n;
  rng::Engine gen(9);
  const auto res = make_protocol("doubling-threshold")->run(m, n, gen);
  EXPECT_LT(static_cast<double>(res.probes), 2.0 * static_cast<double>(m));
}

TEST(DoublingThreshold, ExplicitInitialGuessHonored) {
  const BinState state(10);
  const BoundedProbeRule rule = doubling_rule(10, 100);
  EXPECT_EQ(rule.clock(state), 100u - 1);
  EXPECT_EQ(rule.accept_bound(state), 10u);
}

TEST(DoublingThreshold, RegistryRoundTrip) {
  const auto p = make_protocol("doubling-threshold[64]");
  EXPECT_EQ(p->name(), "doubling-threshold[64]");
}

}  // namespace
}  // namespace bbb::core
