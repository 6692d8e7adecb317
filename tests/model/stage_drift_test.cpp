#include "bbb/model/stage_drift.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "bbb/core/metrics.hpp"
#include "bbb/rng/distributions.hpp"

namespace bbb::model {
namespace {

TEST(StageDrift, Validation) {
  rng::Engine gen(1);
  EXPECT_THROW((void)adaptive_stage_records(0, 4, gen), std::invalid_argument);
  EXPECT_THROW((void)adaptive_stage_records(8, 0, gen), std::invalid_argument);
}

TEST(StageDrift, OneRecordPerStage) {
  rng::Engine gen(2);
  const auto recs = adaptive_stage_records(128, 10, gen);
  ASSERT_EQ(recs.size(), 10u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].stage, i + 1);
    EXPECT_GT(recs[i].phi_before, 0.0);
    EXPECT_GT(recs[i].phi_after, 0.0);
    EXPECT_GE(recs[i].probes, 128u);  // n balls need >= n probes
  }
}

TEST(StageDrift, PhiStaysLinearInN) {
  // Corollary 3.5 at stage granularity: Phi never blows past O(n). Allow a
  // generous constant (the proof's rho-region is ~ (eps+kappa)/(kappa/2) n).
  rng::Engine gen(3);
  constexpr std::uint32_t n = 1 << 12;
  const auto recs = adaptive_stage_records(n, 24, gen);
  for (const auto& r : recs) {
    EXPECT_LT(r.phi_after, 16.0 * n) << "stage " << r.stage;
  }
}

TEST(StageDrift, DriftIsBoundedByOnePlusEps) {
  // Phi(L^{tau+1}) <= (1+eps) Phi(L^tau) holds deterministically (Section 3):
  // loads only grow, and re-centering costs at most the (1+eps) factor.
  rng::Engine gen(4);
  const auto recs = adaptive_stage_records(512, 16, gen);
  for (const auto& r : recs) {
    EXPECT_LE(r.drift, 1.0 + core::kPotentialEpsilon + 1e-9) << "stage " << r.stage;
  }
}

// Lemma 3.2: underloaded bins receive stochastically at least
// Poi(199/198) - 2e-10 balls in the next stage. Empirically their mean
// arrivals must clear 1 (the Poisson mean is 199/198 ~ 1.005).
TEST(StageDrift, UnderloadedBinsCatchUp) {
  rng::Engine gen(5);
  constexpr std::uint32_t n = 1 << 12;
  const auto recs = adaptive_stage_records(n, 32, gen, /*deep_hole=*/4);
  double weighted_mean = 0.0;
  std::uint64_t total_bins = 0;
  for (const auto& r : recs) {
    weighted_mean += r.mean_arrivals_deep * static_cast<double>(r.underloaded);
    total_bins += r.underloaded;
  }
  ASSERT_GT(total_bins, 50u) << "not enough underloaded bins to measure";
  weighted_mean /= static_cast<double>(total_bins);
  EXPECT_GT(weighted_mean, 1.0);
}

TEST(StageDrift, ArrivalHistogramDominatesPoissonTail) {
  // Pr[Y >= k] >= Pr[Poi(199/198) >= k] - 2e-10 for k <= C1 (Lemma 3.2).
  // Check the first few k with sampling slack.
  rng::Engine gen(6);
  constexpr std::uint32_t n = 1 << 12;
  const auto counts = underloaded_arrival_histogram(n, 32, gen, 4, 16);
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  ASSERT_GT(total, 200u);
  const rng::PoissonDist poi(199.0 / 198.0);
  double emp_tail = 1.0;
  double poi_tail = 1.0;
  for (std::uint32_t k = 1; k <= 3; ++k) {
    emp_tail -= static_cast<double>(counts[k - 1]) / static_cast<double>(total);
    poi_tail -= poi.pmf(k - 1);
    const double slack = 4.0 / std::sqrt(static_cast<double>(total));
    EXPECT_GE(emp_tail, poi_tail - slack) << "k=" << k;
  }
}

// Every StageRecord field pinned at two sizes; doubles compare exactly.
// Captured from the implementation: a change to the rule, the probe stream
// or the potential's floating-point expression shows up here.
void expect_records(std::uint32_t n, std::uint32_t stages, std::uint64_t seed,
                    const std::vector<StageRecord>& expected) {
  rng::Engine gen(seed);
  const auto recs = adaptive_stage_records(n, stages, gen);
  ASSERT_EQ(recs.size(), expected.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].stage, expected[i].stage) << "stage " << i + 1;
    EXPECT_EQ(recs[i].phi_before, expected[i].phi_before) << "stage " << i + 1;
    EXPECT_EQ(recs[i].phi_after, expected[i].phi_after) << "stage " << i + 1;
    EXPECT_EQ(recs[i].drift, expected[i].drift) << "stage " << i + 1;
    EXPECT_EQ(recs[i].probes, expected[i].probes) << "stage " << i + 1;
    EXPECT_EQ(recs[i].underloaded, expected[i].underloaded) << "stage " << i + 1;
    EXPECT_EQ(recs[i].mean_arrivals_deep, expected[i].mean_arrivals_deep)
        << "stage " << i + 1;
  }
}

TEST(StageDriftPins, N128TenStagesSeed2) {
  expect_records(128, 10, 2, {
      {1, 129.28319999999991, 129.28415474999983, 1.0000073849502482, 147, 0, 0},
      {2, 129.28415474999983, 129.28480938187482, 1.0000050635120465, 160, 0, 0},
      {3, 129.28480938187482, 129.28518764000603, 1.0000029257739793, 158, 11, 1.2727272727272727},
      {4, 129.28518764000603, 129.28556627626853, 1.0000029286902035, 178, 16, 1.125},
      {5, 129.28556627626853, 129.2858192900498, 1.0000019570149132, 180, 18, 1.2222222222222223},
      {6, 129.2858192900498, 129.2861483075811, 1.0000025448849155, 189, 20, 1.25},
      {7, 129.2861483075811, 129.28617431384359, 1.0000002011527362, 168, 18, 1.5555555555555556},
      {8, 129.28617431384359, 129.28632759082504, 1.0000011855635937, 163, 22, 1.1363636363636365},
      {9, 129.28632759082504, 129.28650549032224, 1.0000013760116828, 174, 19, 1.368421052631579},
      {10, 129.28650549032224, 129.28693792562956, 1.0000033447830126, 183, 17, 1},
  });
}

TEST(StageDriftPins, N4096TwentyFourStagesSeed3) {
  expect_records(4096, 24, 3, {
      {1, 4137.062400000128, 4137.0941328750732, 1.0000076703882796, 4695, 0, 0},
      {2, 4137.0941328750732, 4137.1119652182142, 1.0000043103547003, 5116, 0, 0},
      {3, 4137.1119652182142, 4137.125213575463, 1.0000032023202079, 5411, 349, 1.2091690544412608},
      {4, 4137.125213575463, 4137.1314591179153, 1.0000015096334121, 5548, 472, 1.3665254237288136},
      {5, 4137.1314591179153, 4137.1386196262711, 1.0000017307906279, 5443, 505, 1.2633663366336634},
      {6, 4137.1386196262711, 4137.1437047939316, 1.0000012291509006, 5606, 513, 1.2826510721247564},
      {7, 4137.1437047939316, 4137.14781666827, 1.0000009938920742, 5599, 532, 1.2988721804511278},
      {8, 4137.14781666827, 4137.1484568323276, 1.0000001547356019, 5587, 529, 1.4366729678638941},
      {9, 4137.1484568323276, 4137.153597062902, 1.0000012424573661, 5643, 526, 1.2794676806083649},
      {10, 4137.153597062902, 4137.1564958001773, 1.0000007006598153, 5755, 533, 1.3395872420262664},
      {11, 4137.1564958001773, 4137.1572154860314, 1.0000001739566426, 5696, 538, 1.3717472118959109},
      {12, 4137.1572154860314, 4137.1555827033098, 0.9999996053370378, 5612, 512, 1.46875},
      {13, 4137.1555827033098, 4137.1585278236962, 1.0000007118708318, 5638, 512, 1.310546875},
      {14, 4137.1585278236962, 4137.1624089321213, 1.0000009381096708, 5639, 513, 1.3547758284600391},
      {15, 4137.1624089321213, 4137.1636992216718, 1.0000003118779064, 5763, 545, 1.3321100917431192},
      {16, 4137.1636992216718, 4137.1639167174098, 1.0000000525712187, 5648, 544, 1.3639705882352942},
      {17, 4137.1639167174098, 4137.1623156844107, 0.9999996130119494, 5724, 523, 1.4130019120458892},
      {18, 4137.1623156844107, 4137.1613071362035, 0.99999975622222914, 5657, 512, 1.38671875},
      {19, 4137.1613071362035, 4137.162032887677, 1.0000001754225711, 5776, 520, 1.3192307692307692},
      {20, 4137.162032887677, 4137.1600971856769, 0.99999953211839787, 5677, 510, 1.384313725490196},
      {21, 4137.1600971856769, 4137.1601347418655, 1.0000000090777701, 5666, 512, 1.3984375},
      {22, 4137.1601347418655, 4137.1636277597954, 1.0000008443032942, 5727, 512, 1.328125},
      {23, 4137.1636277597954, 4137.1630600432791, 0.99999986277639286, 5725, 521, 1.3570057581573896},
      {24, 4137.1630600432791, 4137.162571018187, 0.99999988179699839, 5774, 526, 1.4296577946768061},
  });
}

}  // namespace
}  // namespace bbb::model
