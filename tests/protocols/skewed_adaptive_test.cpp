#include <gtest/gtest.h>

#include <numeric>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::core {
namespace {

BoundedProbeRule skewed_rule(std::uint32_t n, double s) {
  return BoundedProbeRule(n, {.zipf_s = s}, "skewed-adaptive");
}

TEST(SkewedAdaptive, Validation) {
  EXPECT_THROW(skewed_rule(0, 1.0), std::invalid_argument);
  EXPECT_THROW(skewed_rule(8, -1.0), std::invalid_argument);
}

TEST(SkewedAdaptive, UnreachableColdBinsRejectedAtBind) {
  // At n = 16 these skews give the coldest bin a Zipf weight that
  // underflows to 0 (s = 42949672.95) or falls below 2^-53, the step of
  // the alias table's uniform double (s = 50): once the hot bins pass the
  // bound no probe could land, so the spec is rejected instead of hanging.
  for (const char* spec : {"skewed-adaptive[4294967295]", "skewed-adaptive[5000]"}) {
    EXPECT_THROW((void)make_rule(spec, 16), std::invalid_argument) << spec;
    rng::Engine gen(1);
    EXPECT_THROW((void)make_protocol(spec)->run(64, 16, gen), std::invalid_argument)
        << spec;
  }
  // A strong but reachable skew still binds at scale.
  EXPECT_NO_THROW((void)make_rule("skewed-adaptive[200]", 1024));
}

// The load guarantee is distribution-free: it must hold for every skew.
class SkewGuaranteeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SkewGuaranteeTest, MaxLoadBoundSurvivesAnySkew) {
  const std::uint32_t s100 = GetParam();
  constexpr std::uint32_t n = 128;
  constexpr std::uint64_t m = 8ULL * n + 11;
  rng::Engine gen(s100 + 1);
  const auto res =
      make_protocol("skewed-adaptive[" + std::to_string(s100) + "]")->run(m, n, gen);
  EXPECT_LE(max_load(res.loads), ceil_div(m, n) + 1);
  EXPECT_EQ(std::accumulate(res.loads.begin(), res.loads.end(), std::uint64_t{0}), m);
}

INSTANTIATE_TEST_SUITE_P(SkewSweep, SkewGuaranteeTest,
                         ::testing::Values(0u, 50u, 100u, 150u, 200u));

TEST(SkewedAdaptive, ZeroSkewMatchesPlainAdaptiveStatistically) {
  // s = 0 is uniform probing. The probe *sequence* differs from plain
  // adaptive (alias table consumes two draws), so compare distributions,
  // not bits: allocation cost per ball must agree within a few percent.
  constexpr std::uint32_t n = 512;
  constexpr std::uint64_t m = 16ULL * n;
  double skew_total = 0, plain_total = 0;
  rng::SeedSequence seq(11);
  constexpr int kReps = 10;
  for (int r = 0; r < kReps; ++r) {
    rng::Engine g1 = seq.engine(r);
    rng::Engine g2 = seq.engine(100 + r);
    skew_total +=
        static_cast<double>(make_protocol("skewed-adaptive[0]")->run(m, n, g1).probes);
    plain_total += static_cast<double>(make_protocol("adaptive")->run(m, n, g2).probes);
  }
  EXPECT_NEAR(skew_total / plain_total, 1.0, 0.05);
}

TEST(SkewedAdaptive, SkewInflatesAllocationTime) {
  // Theorem 3.1's O(m) leans on uniformity: biased probing must cost
  // strictly more, monotonically in s.
  constexpr std::uint32_t n = 512;
  constexpr std::uint64_t m = 8ULL * n;
  rng::SeedSequence seq(13);
  double prev = 0.0;
  for (std::uint32_t s100 : {0u, 100u, 200u}) {
    rng::Engine gen = seq.engine(s100);
    const auto res =
        make_protocol("skewed-adaptive[" + std::to_string(s100) + "]")->run(m, n, gen);
    const double per_ball = static_cast<double>(res.probes) / static_cast<double>(m);
    EXPECT_GT(per_ball, prev) << "s/100=" << s100;
    prev = per_ball;
  }
  // At s = 2 the cold tail is severe; the cost should be clearly
  // super-constant (well above the uniform ~1.3).
  EXPECT_GT(prev, 5.0);
}

TEST(SkewedAdaptive, StreamingAndBatchAgree) {
  constexpr std::uint32_t n = 64;
  constexpr std::uint64_t m = 500;
  rng::Engine g1(21), g2(21);
  BinState state(n);
  BoundedProbeRule rule = skewed_rule(n, 0.5);
  for (std::uint64_t i = 0; i < m; ++i) (void)rule.place_one(state, g1);
  const auto batch = make_protocol("skewed-adaptive[50]")->run(m, n, g2);
  EXPECT_EQ(state.loads(), batch.loads);
  EXPECT_EQ(rule.probes(), batch.probes);
}

TEST(SkewedAdaptive, NameRoundTripsThroughRegistry) {
  EXPECT_EQ(make_protocol("skewed-adaptive[150]")->name(), "skewed-adaptive[150]");
}

}  // namespace
}  // namespace bbb::core
