/// Tests for the workload generators: event legality (no departures from
/// an empty system, strictly increasing clocks), the structural properties
/// of each generator, and the spec registry.

#include "bbb/dyn/workload.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace bbb::dyn {
namespace {

TEST(Supermarket, RejectsUnstableOrDegenerateParameters) {
  EXPECT_THROW(SupermarketWorkload(0, 0.5), std::invalid_argument);
  EXPECT_THROW(SupermarketWorkload(8, 0.0), std::invalid_argument);
  EXPECT_THROW(SupermarketWorkload(8, 1.0), std::invalid_argument);
  EXPECT_THROW(SupermarketWorkload(8, 1.5), std::invalid_argument);
  EXPECT_NO_THROW(SupermarketWorkload(8, 0.99));
}

TEST(Supermarket, OnlyArrivalsWhenEmpty) {
  SupermarketWorkload wl(16, 0.9);
  rng::Engine gen(1);
  const WorkloadContext empty{0, 0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(wl.next(gen, empty).kind, EventKind::kArrival);
  }
}

TEST(Supermarket, ClockStrictlyIncreases) {
  SupermarketWorkload wl(16, 0.5);
  rng::Engine gen(2);
  double last = 0.0;
  const WorkloadContext ctx{10, 8};
  for (int i = 0; i < 500; ++i) {
    const DynEvent ev = wl.next(gen, ctx);
    EXPECT_GT(ev.time, last);
    last = ev.time;
  }
}

TEST(Supermarket, ArrivalFractionTracksRates) {
  // With lambda*n = 8 and 8 busy bins the arrival probability is 1/2.
  SupermarketWorkload wl(16, 0.5);
  rng::Engine gen(3);
  const WorkloadContext ctx{20, 8};
  int arrivals = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    arrivals += wl.next(gen, ctx).kind == EventKind::kArrival ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(arrivals) / kTrials, 0.5, 0.02);
}

TEST(Supermarket, DepartSelectIsNonemptyBin) {
  SupermarketWorkload wl(4, 0.5);
  EXPECT_EQ(wl.depart_select(), DepartSelect::kUniformNonemptyBin);
  EXPECT_EQ(wl.name(), "supermarket[50]");
}

TEST(Churn, FillsThenAlternatesExactly) {
  const std::uint64_t population = 25;
  ChurnWorkload wl(population, DepartSelect::kUniformBall);
  rng::Engine gen(4);
  WorkloadContext ctx{0, 0};
  for (std::uint64_t i = 0; i < population; ++i) {
    const DynEvent ev = wl.next(gen, ctx);
    EXPECT_EQ(ev.kind, EventKind::kArrival) << "fill event " << i;
    ++ctx.balls;
  }
  for (int cycle = 0; cycle < 50; ++cycle) {
    EXPECT_EQ(wl.next(gen, ctx).kind, EventKind::kDeparture);
    EXPECT_EQ(wl.next(gen, ctx).kind, EventKind::kArrival);
  }
}

TEST(Churn, VictimPolicyAndNames) {
  EXPECT_EQ(ChurnWorkload(5, DepartSelect::kUniformBall).depart_select(),
            DepartSelect::kUniformBall);
  EXPECT_EQ(ChurnWorkload(5, DepartSelect::kOldestBall).depart_select(),
            DepartSelect::kOldestBall);
  EXPECT_EQ(ChurnWorkload(5, DepartSelect::kUniformBall).name(), "churn[5]");
  EXPECT_EQ(ChurnWorkload(5, DepartSelect::kOldestBall).name(), "churn-oldest[5]");
  EXPECT_THROW(ChurnWorkload(0, DepartSelect::kUniformBall), std::invalid_argument);
  EXPECT_THROW(ChurnWorkload(5, DepartSelect::kUniformNonemptyBin),
               std::invalid_argument);
}

TEST(Bursty, ValidatesRates) {
  EXPECT_THROW(BurstyWorkload(0, 0.9, 0.1, 0.05), std::invalid_argument);
  EXPECT_THROW(BurstyWorkload(8, -0.1, 0.1, 0.05), std::invalid_argument);
  EXPECT_THROW(BurstyWorkload(8, 0.0, 0.0, 0.05), std::invalid_argument);
  EXPECT_THROW(BurstyWorkload(8, 0.9, 0.1, 0.0), std::invalid_argument);
}

TEST(Bursty, PhaseToggles) {
  BurstyWorkload wl(8, 0.9, 0.1, 5.0);  // fast switching
  rng::Engine gen(5);
  const WorkloadContext ctx{4, 3};
  bool saw_on = false, saw_off = false;
  for (int i = 0; i < 2000 && !(saw_on && saw_off); ++i) {
    (void)wl.next(gen, ctx);
    (saw_on = saw_on || wl.on());
    (saw_off = saw_off || !wl.on());
  }
  EXPECT_TRUE(saw_on);
  EXPECT_TRUE(saw_off);
}

TEST(Bursty, OffPhaseWithZeroRateStillProgresses) {
  // lambda_off = 0: during off phases only departures and switches fire;
  // with an empty system the generator must still emit (the switch clock
  // eventually returns to the on phase).
  BurstyWorkload wl(8, 0.5, 0.0, 1.0);
  rng::Engine gen(6);
  const WorkloadContext empty{0, 0};
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(wl.next(gen, empty).kind, EventKind::kArrival);
  }
}

TEST(Chains, WeightsStayInRangeAndSkewSmall) {
  const std::uint32_t max_len = 6;
  ChainWorkload wl(16, 0.5, 1.2, max_len);
  rng::Engine gen(7);
  const WorkloadContext ctx{0, 0};
  std::uint64_t ones = 0, longest = 0, arrivals = 0;
  for (int i = 0; i < 5000; ++i) {
    const DynEvent ev = wl.next(gen, ctx);
    ASSERT_EQ(ev.kind, EventKind::kArrival);  // empty system: no departures
    ASSERT_GE(ev.weight, 1u);
    ASSERT_LE(ev.weight, max_len);
    ++arrivals;
    ones += ev.weight == 1 ? 1 : 0;
    longest += ev.weight == max_len ? 1 : 0;
  }
  // Zipf(1.2) strongly favors short chains.
  EXPECT_GT(ones, longest * 2);
  EXPECT_GT(wl.mean_length(), 1.0);
  EXPECT_LT(wl.mean_length(), static_cast<double>(max_len));
}

TEST(Chains, Validation) {
  EXPECT_THROW(ChainWorkload(0, 0.5, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(ChainWorkload(8, 0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(ChainWorkload(8, 1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(ChainWorkload(8, 0.5, 1.0, 0), std::invalid_argument);
}

TEST(Chains, MaxLenDomainIsCapped) {
  // max_len sizes the length sampler's tables; the cap is checked before
  // they are built, for both spellings.
  for (const std::string prefix : {"", "weighted:"}) {
    EXPECT_EQ(make_workload(prefix + "chains[50,100,65536]", 16)->name(),
              prefix + "chains[50,100,65536]");
    for (const char* max_len : {"65537", "4294967295"}) {
      EXPECT_THROW((void)make_workload(prefix + "chains[50,100," + max_len + "]", 16),
                   std::invalid_argument)
          << prefix << max_len;
    }
  }
  EXPECT_THROW(ChainWorkload(8, 0.5, 1.0, ChainWorkload::kMaxLen + 1),
               std::invalid_argument);
}

TEST(Registry, BuildsEverySpecShape) {
  const std::uint32_t n = 16;
  EXPECT_EQ(make_workload("supermarket[90]", n)->name(), "supermarket[90]");
  EXPECT_EQ(make_workload("churn[100]", n)->name(), "churn[100]");
  EXPECT_EQ(make_workload("churn-oldest[64]", n)->name(), "churn-oldest[64]");
  EXPECT_EQ(make_workload("bursty[90,10,5]", n)->name(), "bursty[90,10,5]");
  EXPECT_EQ(make_workload("chains[50,120,8]", n)->name(), "chains[50,120,8]");
}

TEST(Registry, RejectsMalformedSpecs) {
  EXPECT_THROW((void)make_workload("nope", 8), std::invalid_argument);
  EXPECT_THROW((void)make_workload("supermarket", 8), std::invalid_argument);
  EXPECT_THROW((void)make_workload("supermarket[100]", 8), std::invalid_argument);
  EXPECT_THROW((void)make_workload("churn[]", 8), std::invalid_argument);
  EXPECT_THROW((void)make_workload("bursty[90,10]", 8), std::invalid_argument);
  EXPECT_THROW((void)make_workload("chains[50,120]", 8), std::invalid_argument);
}

TEST(Registry, SpecsListIsNonEmpty) {
  EXPECT_GE(workload_specs().size(), 5u);
}

}  // namespace
}  // namespace bbb::dyn
