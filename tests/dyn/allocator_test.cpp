/// Tests for the streaming allocators the dyn engine drives
/// (core::make_streaming_allocator over core/rule.hpp): the spec registry,
/// the rules' behavior under churn, and the central property that *every*
/// registry rule keeps the incremental BinState metrics equal to the naive
/// batch recomputation under randomized place/remove interleavings.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/protocols/cuckoo.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/protocols/self_balancing.hpp"

namespace bbb::dyn {
namespace {

using core::BinState;
using core::make_streaming_allocator;
using core::StreamingAllocator;

void expect_metrics_match(const BinState& state, double tol = 1e-9) {
  const auto& loads = state.loads();
  const core::LoadMetrics batch = core::compute_metrics(loads, state.balls());
  EXPECT_EQ(state.max_load(), batch.max);
  EXPECT_EQ(state.min_load(), batch.min);
  EXPECT_EQ(state.gap(), batch.gap);
  EXPECT_NEAR(state.psi(), batch.psi, tol * (1.0 + std::abs(batch.psi)));
  EXPECT_NEAR(state.log_phi(), batch.log_phi, tol * (1.0 + std::abs(batch.log_phi)));
  std::uint32_t nonempty = 0;
  for (const auto l : loads) nonempty += l > 0 ? 1 : 0;
  EXPECT_EQ(state.nonempty_bins(), nonempty);
  // Capacitated states additionally keep the normalized metrics exact.
  if (!state.capacities().empty()) {
    const core::NormalizedLoadMetrics norm = core::compute_normalized_metrics(
        loads, state.capacities(), state.balls());
    EXPECT_DOUBLE_EQ(state.max_norm_load(), norm.max_norm);
    EXPECT_DOUBLE_EQ(state.min_norm_load(), norm.min_norm);
    EXPECT_NEAR(state.weighted_psi(), norm.weighted_psi,
                tol * (1.0 + std::abs(norm.weighted_psi)));
  }
}

// ---------------------------------------------------------------- property

// Every concrete spec shape in the registry, with parameters valid at the
// test's n = 32 (left/stale need args <= n; threshold gets its bound from
// the m hint below).
const char* const kAllSpecs[] = {
    "one-choice",        "greedy[2]",           "greedy[4]",
    "left[2]",           "left[4]",             "memory[1,1]",
    "memory[2,2]",       "threshold",           "threshold[2]",
    "doubling-threshold[0]",                    "adaptive",
    "adaptive[2]",       "adaptive-net",        "adaptive-net[2]",
    "adaptive-total",    "stale-adaptive[1]",   "stale-adaptive[16]",
    "skewed-adaptive[50]",                      "batched[4]",
    "self-balancing",    "cuckoo[2,4]",
    // Heterogeneous-capacity variants: capacity-probing rules and a
    // uniform-probing rule over the same capacitated state.
    "capacities=1,2,4,8:one-choice",
    "capacities=1,2,4,8:greedy[2]",
    "capacities=1,2,4,8:left[2]",
    "capacities=1,3:adaptive-net",
    "capacities=2,5:memory[1,1]",
};

class RegistryChurnTest : public ::testing::TestWithParam<const char*> {};

// The satellite property: for every rule in the registry, a randomized
// interleaving of placements and departures leaves every incremental
// BinState metric equal to the naive recomputation from the raw loads.
TEST_P(RegistryChurnTest, MetricsStayExactUnderRandomInterleavings) {
  const std::uint32_t n = 32;
  // Provision fixed-bound rules (threshold) far above the population cap
  // below, so no interleaving can deadlock them.
  const std::uint64_t m_hint = 16ULL * n;
  const auto alloc = make_streaming_allocator(GetParam(), n, m_hint);
  rng::Engine gen(2024);
  // Population stays below 2n: batched[4] (capacity 4) and threshold
  // (bound 16) can then always admit another ball.
  const std::uint64_t cap = 2ULL * n;
  for (int step = 0; step < 3000; ++step) {
    const bool add = alloc->state().balls() == 0 ||
                     (alloc->state().balls() < cap && rng::bernoulli(gen, 0.55));
    if (add) {
      const std::uint32_t bin = alloc->place(gen);
      ASSERT_LT(bin, n);
    } else {
      alloc->remove(alloc->state().sample_nonempty(gen));
    }
    if (step % 97 == 0) expect_metrics_match(alloc->state());
  }
  expect_metrics_match(alloc->state());
  // The loads the rule produced are consistent with the ball count.
  std::uint64_t total = 0;
  for (const auto l : alloc->state().loads()) total += l;
  EXPECT_EQ(total, alloc->state().balls());
}

INSTANTIATE_TEST_SUITE_P(AllRegistryRules, RegistryChurnTest,
                         ::testing::ValuesIn(kAllSpecs));

// The same property under *weighted* placements: rules with atomic weight
// support take whole chains (random weights 1..6), everything else in the
// registry would go through the explode fallback (covered above); unit
// departures interleave throughout.
const char* const kWeightedSpecs[] = {
    "one-choice",
    "greedy[2]",
    "left[4]",
    "capacities=1,2,4,8:one-choice",
    "capacities=1,2,4,8:greedy[2]",
    "capacities=1,2,4,8:left[2]",
};

class WeightedChurnTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WeightedChurnTest, MetricsStayExactUnderWeightedInterleavings) {
  const std::uint32_t n = 32;
  const auto alloc = make_streaming_allocator(GetParam(), n);
  EXPECT_TRUE(alloc->rule().supports_weights());
  rng::Engine gen(777);
  const std::uint64_t cap = 8ULL * n;
  for (int step = 0; step < 2500; ++step) {
    const bool add = alloc->state().balls() == 0 ||
                     (alloc->state().balls() < cap && rng::bernoulli(gen, 0.55));
    if (add) {
      const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 6));
      const std::uint32_t bin = alloc->place_weighted(w, gen);
      ASSERT_LT(bin, n);
    } else {
      alloc->remove(alloc->state().sample_nonempty(gen));
    }
    if (step % 83 == 0) expect_metrics_match(alloc->state());
  }
  expect_metrics_match(alloc->state());
  std::uint64_t total = 0;
  for (const auto l : alloc->state().loads()) total += l;
  EXPECT_EQ(total, alloc->state().balls());
}

INSTANTIATE_TEST_SUITE_P(WeightCapableRules, WeightedChurnTest,
                         ::testing::ValuesIn(kWeightedSpecs));

// ------------------------------------------------------ adaptive mechanics

TEST(DynAdaptive, NetBoundKeepsMaxLoadTightArrivalsOnly) {
  const std::uint32_t n = 64;
  const auto alloc = make_streaming_allocator("adaptive-net", n);
  rng::Engine gen(42);
  for (std::uint64_t i = 1; i <= 10 * n; ++i) {
    alloc->place(gen);
    ASSERT_LE(alloc->state().max_load(), core::ceil_div(i, n) + 1) << "ball " << i;
  }
}

TEST(DynAdaptive, NetAndTotalAgreeWithoutDepartures) {
  rng::Engine g1(9), g2(9);
  const auto net = make_streaming_allocator("adaptive-net", 32);
  const auto total = make_streaming_allocator("adaptive-total", 32);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(net->place(g1), total->place(g2));
  }
  EXPECT_EQ(net->state().loads(), total->state().loads());
  EXPECT_EQ(net->probes(), total->probes());
  EXPECT_TRUE(g1 == g2);
}

TEST(DynAdaptive, BoundsDivergeUnderChurn) {
  // Remove/replace cycles advance the total counter but not the net count,
  // so the total variant's bound keeps climbing while net's stays put.
  const std::uint32_t n = 8;
  rng::Engine gen(5);
  const auto net = make_streaming_allocator("adaptive-net", n);
  const auto total = make_streaming_allocator("adaptive-total", n);
  const auto& net_rule = dynamic_cast<const core::BoundedProbeRule&>(net->rule());
  const auto& total_rule = dynamic_cast<const core::BoundedProbeRule&>(total->rule());
  for (std::uint32_t i = 0; i < 4 * n; ++i) {
    net->place(gen);
    total->place(gen);
  }
  const std::uint64_t net_bound = net_rule.accept_bound(net->state());
  EXPECT_EQ(net_bound, total_rule.accept_bound(total->state()));
  for (int cycle = 0; cycle < 100; ++cycle) {
    net->remove(net->state().sample_nonempty(gen));
    net->place(gen);
    total->remove(total->state().sample_nonempty(gen));
    total->place(gen);
  }
  EXPECT_EQ(net_rule.accept_bound(net->state()), net_bound);
  EXPECT_GT(total_rule.accept_bound(total->state()), net_bound + 10);
  // The net clock reads the balls present, the total clock the balls placed.
  EXPECT_EQ(net_rule.clock(net->state()), net->state().balls());
  EXPECT_EQ(total_rule.clock(total->state()), total->total_placed());
}

// ----------------------------------------------------- fixed-bound rules

TEST(DynThreshold, DeadlockIsDetectedNotSpun) {
  // threshold[slack] with the default m hint (= n) accepts load <= slack;
  // the slack-0 rule on 2 bins accepts only empty bins, so it admits two
  // balls and then deadlocks.
  const auto alloc = make_streaming_allocator("threshold[0]", 2);
  rng::Engine gen(3);
  alloc->place(gen);
  alloc->place(gen);
  EXPECT_EQ(alloc->state().max_load(), 1u);
  EXPECT_THROW(alloc->place(gen), std::logic_error);
  // A departure re-opens capacity.
  alloc->remove(0);
  EXPECT_NO_THROW(alloc->place(gen));
}

TEST(DynThreshold, MHintSetsTheBound) {
  // m hint 40 over 10 bins with slack 2: accept load <= ceil(40/10)+1 = 5,
  // so no bin can ever exceed 6 (bound + 1 by construction).
  const auto alloc = make_streaming_allocator("threshold[2]", 10, 40);
  rng::Engine gen(4);
  for (int i = 0; i < 50; ++i) alloc->place(gen);
  EXPECT_LE(alloc->state().max_load(), 6u);
}

TEST(DynBatched, CapacityHoldsUnderChurnAndDeadlockThrows) {
  const auto alloc = make_streaming_allocator("batched[2]", 4);
  rng::Engine gen(6);
  for (int i = 0; i < 8; ++i) alloc->place(gen);
  EXPECT_EQ(alloc->state().max_load(), 2u);
  EXPECT_EQ(alloc->state().min_load(), 2u);
  EXPECT_THROW(alloc->place(gen), std::logic_error);
  alloc->remove(1);
  EXPECT_EQ(alloc->place(gen), 1u);  // the only bin with spare capacity
}

TEST(DynCuckoo, ChurnMemoryStaysProportionalToPopulation) {
  // Rule-local state must be O(max population), not O(total insertions):
  // departed/parked item ids are recycled.
  const std::uint32_t n = 32;
  const auto alloc = make_streaming_allocator("cuckoo[2,4]", n);
  auto& rule = dynamic_cast<core::CuckooRule&>(alloc->rule());
  rng::Engine gen(11);
  const std::uint64_t population = 2ULL * n;
  for (std::uint64_t i = 0; i < population; ++i) alloc->place(gen);
  for (int cycle = 0; cycle < 5000; ++cycle) {
    alloc->remove(alloc->state().sample_nonempty(gen));
    alloc->place(gen);
  }
  EXPECT_EQ(alloc->state().balls(), population);
  // + stash slack: a failed insert can transiently hold one extra id.
  EXPECT_LE(rule.tracked_items(), population + rule.stash() + 1);
}

TEST(DynSelfBalancing, ChurnMemoryStaysProportionalToPopulation) {
  const std::uint32_t n = 32;
  const auto alloc = make_streaming_allocator("self-balancing", n);
  auto& rule = dynamic_cast<core::SelfBalancingRule&>(alloc->rule());
  rng::Engine gen(12);
  const std::uint64_t population = 2ULL * n;
  for (std::uint64_t i = 0; i < population; ++i) alloc->place(gen);
  for (int cycle = 0; cycle < 5000; ++cycle) {
    alloc->remove(alloc->state().sample_nonempty(gen));
    alloc->place(gen);
  }
  EXPECT_EQ(rule.tracked_balls(), population);
}

TEST(StreamingAllocator, RejectsRuleBuiltForDifferentN) {
  // n-bound rules (group partitions, resident tables, fixed bounds)
  // declare their n; pairing them with a mismatched BinState is an error,
  // not out-of-bounds indexing.
  for (const char* spec : {"left[2]", "cuckoo[2,4]", "skewed-adaptive[50]",
                           "threshold", "doubling-threshold[0]",
                           "stale-adaptive[2]"}) {
    EXPECT_THROW(StreamingAllocator(64, core::make_rule(spec, 32)),
                 std::invalid_argument)
        << spec;
  }
  // Unbound rules work with any state size.
  EXPECT_NO_THROW(StreamingAllocator(64, core::make_rule("greedy[2]", 32)));
}

TEST(DynCuckoo, BinVictimDepartureKeepsResidentsConsistent) {
  const std::uint32_t n = 16;
  const auto protocol = core::make_protocol("cuckoo[2,4]");
  EXPECT_FALSE(protocol->stable_ball_identity());
  EXPECT_TRUE(core::make_protocol("greedy[2]")->stable_ball_identity());
  const auto alloc = protocol->bind(n, 0, core::StateLayout::kWide);
  rng::Engine gen(8);
  for (int i = 0; i < 3 * 16; ++i) alloc->place(gen);
  for (int cycle = 0; cycle < 200; ++cycle) {
    alloc->remove(alloc->state().sample_nonempty(gen));
    alloc->place(gen);
  }
  expect_metrics_match(alloc->state());
}

// ---------------------------------------------------------------- registry

TEST(Registry, BuildsEverySpecShape) {
  const std::uint32_t n = 16;
  EXPECT_EQ(make_streaming_allocator("one-choice", n)->name(), "one-choice");
  EXPECT_EQ(make_streaming_allocator("greedy[2]", n)->name(), "greedy[2]");
  EXPECT_EQ(make_streaming_allocator("left[2]", n)->name(), "left[2]");
  EXPECT_EQ(make_streaming_allocator("memory[1,1]", n)->name(), "memory[1,1]");
  EXPECT_EQ(make_streaming_allocator("adaptive-net", n)->name(), "adaptive-net");
  EXPECT_EQ(make_streaming_allocator("adaptive-net[2]", n)->name(), "adaptive-net[2]");
  EXPECT_EQ(make_streaming_allocator("adaptive-total", n)->name(), "adaptive-total");
  EXPECT_EQ(make_streaming_allocator("adaptive-total[3]", n)->name(),
            "adaptive-total[3]");
  EXPECT_EQ(make_streaming_allocator("threshold[4]", n)->name(), "threshold[4]");
  EXPECT_EQ(make_streaming_allocator("doubling-threshold[0]", n)->name(),
            "doubling-threshold[0]");
  EXPECT_EQ(make_streaming_allocator("stale-adaptive[4]", n)->name(),
            "stale-adaptive[4]");
  EXPECT_EQ(make_streaming_allocator("skewed-adaptive[50]", n)->name(),
            "skewed-adaptive[50]");
  EXPECT_EQ(make_streaming_allocator("batched[4]", n)->name(), "batched[4]");
  EXPECT_EQ(make_streaming_allocator("self-balancing", n)->name(), "self-balancing");
  EXPECT_EQ(make_streaming_allocator("cuckoo[2,4]", n)->name(), "cuckoo[2,4]");
}

TEST(Registry, NameRoundTripsThroughRegistry) {
  for (const std::string spec :
       {"one-choice", "greedy[3]", "left[2]", "memory[2,1]", "adaptive-net",
        "adaptive-total[2]", "threshold[5]", "stale-adaptive[2]",
        "skewed-adaptive[50]", "batched[2]", "self-balancing", "cuckoo[2,4]"}) {
    const auto alloc = make_streaming_allocator(spec, 8);
    const auto rebuilt = make_streaming_allocator(alloc->name(), 8);
    EXPECT_EQ(rebuilt->name(), alloc->name());
  }
}

TEST(Registry, RejectsMalformedSpecs) {
  EXPECT_THROW((void)make_streaming_allocator("nope", 8), std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("greedy", 8), std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("greedy[", 8), std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("greedy[x]", 8), std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("one-choice[1]", 8),
               std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("adaptive-net[1,2]", 8),
               std::invalid_argument);
  // Parameters invalid at this n are rejected at construction.
  EXPECT_THROW((void)make_streaming_allocator("left[9]", 8), std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("stale-adaptive[9]", 8),
               std::invalid_argument);
  // Negative and uint32-overflowing arguments are rejected, not wrapped.
  EXPECT_THROW((void)make_streaming_allocator("greedy[-1]", 8),
               std::invalid_argument);
  EXPECT_THROW((void)make_streaming_allocator("greedy[4294967297]", 8),
               std::invalid_argument);
}

TEST(Registry, SpecsListCoversTheFullRegistry) {
  // bbb_dyn --list prints the protocol registry's own list.
  const auto specs = core::protocol_specs();
  EXPECT_GE(specs.size(), 15u);
}

}  // namespace
}  // namespace bbb::dyn
