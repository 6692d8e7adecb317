/// Distribution-level checks: the protocols' *load distributions* must match
/// what occupancy theory predicts, not just their extremes. This catches
/// subtle sampling bias (e.g. a broken bounded-uniform or tie-break) that
/// max-load tests alone would miss.

#include <gtest/gtest.h>

#include <cmath>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/stats/histogram.hpp"
#include "bbb/stats/hypothesis.hpp"
#include "../support/occupancy.hpp"

namespace bbb::core {
namespace {

// One-choice final loads are Bin(m, 1/n) per bin; the *counts of bins at
// each load value* must match n * pmf. Aggregate over replicates and
// chi-square against the occupancy prediction.
TEST(LoadDistribution, OneChoiceMatchesBinomialOccupancy) {
  constexpr std::uint32_t n = 1024;
  constexpr std::uint64_t m = 4ULL * n;
  constexpr std::uint32_t kMaxCell = 12;
  rng::SeedSequence seq(31);

  std::vector<std::uint64_t> observed(kMaxCell + 1, 0);
  constexpr int kReps = 30;
  for (int r = 0; r < kReps; ++r) {
    rng::Engine gen = seq.engine(r);
    const auto res = make_protocol("one-choice")->run(m, n, gen);
    for (std::uint32_t l : res.loads) ++observed[std::min(l, kMaxCell)];
  }
  std::vector<double> expected(kMaxCell + 1, 0.0);
  double head = 0.0;
  for (std::uint32_t k = 0; k < kMaxCell; ++k) {
    expected[k] = test::expected_bins_with_load(m, n, k) / static_cast<double>(n);
    head += expected[k];
  }
  expected[kMaxCell] = std::max(0.0, 1.0 - head);
  const auto res = stats::chi_square_gof(observed, expected);
  // Bin loads within one replicate are weakly negatively correlated (they
  // sum to m), which *shrinks* the chi-square statistic slightly — the test
  // is conservative in the direction we care about.
  EXPECT_GT(res.p_value, 1e-4) << "stat=" << res.statistic;
}

TEST(LoadDistribution, OneChoiceEmptyBinCountMatchesTheory) {
  constexpr std::uint32_t n = 4096;
  rng::SeedSequence seq(32);
  double total_empty = 0;
  constexpr int kReps = 25;
  for (int r = 0; r < kReps; ++r) {
    rng::Engine gen = seq.engine(r);
    const auto res = make_protocol("one-choice")->run(n, n, gen);
    total_empty += static_cast<double>(empty_bins(res.loads));
  }
  const double mean_empty = total_empty / kReps;
  EXPECT_NEAR(mean_empty, test::expected_empty_bins(n, n),
              4.0 * std::sqrt(static_cast<double>(n)));
}

// greedy[2] at m = n: almost no bin exceeds load 2 and empty bins are far
// rarer than one-choice's n/e (the power of two choices reshapes the whole
// histogram, not just the max).
TEST(LoadDistribution, GreedyTwoReshapesHistogram) {
  constexpr std::uint32_t n = 4096;
  rng::Engine g1(33), g2(33);
  const auto greedy = make_protocol("greedy[2]")->run(n, n, g1);
  const auto one = make_protocol("one-choice")->run(n, n, g2);
  const auto h_greedy = load_histogram(greedy.loads);
  const auto h_one = load_histogram(one.loads);
  EXPECT_LT(h_greedy.count(0), h_one.count(0));
  // Mass above load 2 is (near-)zero for greedy[2] at m = n.
  std::uint64_t heavy = 0;
  for (const auto& [v, c] : h_greedy.items()) {
    if (v > 2) heavy += c;
  }
  EXPECT_LE(heavy, n / 100);
}

// Adaptive's min load rises stage by stage: after tau stages the minimum is
// at least tau - O(log n) (Corollary 3.5's gap bound applied at every
// prefix). Verify the monotone form: min load never decreases across stage
// boundaries and ends within the gap bound of the mean.
TEST(LoadDistribution, AdaptiveMinLoadTracksStages) {
  constexpr std::uint32_t n = 512;
  constexpr std::uint32_t stages = 32;
  rng::Engine gen(34);
  BinState state(n);
  BoundedProbeRule rule(n, {.clock = BoundClock::kPlaced}, "adaptive");
  std::uint32_t prev_min = 0;
  for (std::uint32_t tau = 1; tau <= stages; ++tau) {
    for (std::uint32_t b = 0; b < n; ++b) (void)rule.place_one(state, gen);
    const std::uint32_t cur_min = min_load(state.loads());
    EXPECT_GE(cur_min, prev_min) << "stage " << tau;
    prev_min = cur_min;
  }
  EXPECT_GE(static_cast<double>(prev_min),
            static_cast<double>(stages) - 6.0 * std::log(static_cast<double>(n)) - 4.0);
}

}  // namespace
}  // namespace bbb::core
