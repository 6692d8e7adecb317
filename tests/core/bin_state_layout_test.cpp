/// Wide-vs-compact BinState lockstep: the two storage layouts driven
/// through identical event sequences must agree on every load and every
/// incremental metric at every step — including across the 8-bit lane
/// promotion boundary (load 254 -> 255 -> 256 and back), under weights,
/// and on heterogeneous-capacity states. Plus the layout-specific API
/// contracts (loads()/sample_nonempty rejection, copy_loads) and the
/// pre-existing golden allocation pins rerun on a compact state, proving
/// the layout changes storage only, never a single placement.

#include "bbb/core/bin_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bbb/core/protocols/adaptive.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/core/protocols/threshold.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {
namespace {

/// Every metric of the two layouts must be *identical* — not close: the
/// incremental bookkeeping is shared code over integer state, so even the
/// floating-point Psi/lnPhi accumulations follow the same operation
/// sequence bit for bit.
void expect_lockstep(const BinState& wide, const BinState& compact) {
  ASSERT_EQ(wide.n(), compact.n());
  EXPECT_EQ(wide.balls(), compact.balls());
  EXPECT_EQ(wide.max_load(), compact.max_load());
  EXPECT_EQ(wide.min_load(), compact.min_load());
  EXPECT_EQ(wide.gap(), compact.gap());
  EXPECT_EQ(wide.nonempty_bins(), compact.nonempty_bins());
  EXPECT_EQ(wide.psi(), compact.psi());
  EXPECT_EQ(wide.log_phi(), compact.log_phi());
  EXPECT_EQ(wide.weighted_psi(), compact.weighted_psi());
  EXPECT_EQ(wide.max_norm_load(), compact.max_norm_load());
  EXPECT_EQ(wide.min_norm_load(), compact.min_norm_load());
  EXPECT_EQ(wide.level_counts(), compact.level_counts());
  for (std::uint32_t b = 0; b < wide.n(); ++b) {
    ASSERT_EQ(wide.load(b), compact.load(b)) << "bin " << b;
  }
  // copy_loads works in either layout (so the helper also accepts two
  // compact states, e.g. the clear-vs-fresh check).
  EXPECT_EQ(wide.copy_loads(), compact.copy_loads());
}

TEST(BinStateLayout, ReportsLayout) {
  EXPECT_EQ(BinState(4).layout(), StateLayout::kWide);
  EXPECT_EQ(BinState(4, StateLayout::kCompact).layout(), StateLayout::kCompact);
}

TEST(BinStateLayout, ParseAndPrintRoundTrip) {
  // Layouts are derived per run (core::preferred_layout), never parsed
  // from user input; only the printed names remain, for describe() lines
  // and trace records.
  EXPECT_EQ(to_string(StateLayout::kWide), "wide");
  EXPECT_EQ(to_string(StateLayout::kCompact), "compact");
}

TEST(BinStateLayout, CompactRejectsWideOnlyApi) {
  BinState compact(8, StateLayout::kCompact);
  compact.add_ball(3);
  EXPECT_THROW((void)compact.loads(), std::logic_error);
  rng::Engine gen(1);
  EXPECT_THROW((void)compact.sample_nonempty(gen), std::logic_error);
  // The portable reads keep working.
  EXPECT_EQ(compact.load(3), 1u);
  EXPECT_EQ(compact.copy_loads(),
            (std::vector<std::uint32_t>{0, 0, 0, 1, 0, 0, 0, 0}));
}

// The promotion boundary: one bin pushed through the 8-bit lane limit
// (255) into the overflow side-table and pulled back down, one unit at a
// time, with a neighbor bin checked for interference.
TEST(BinStateLayout, OverflowPromotionAndDemotionPerUnit) {
  BinState wide(4, StateLayout::kWide);
  BinState compact(4, StateLayout::kCompact);
  for (std::uint32_t i = 0; i < 300; ++i) {
    wide.add_ball(2);
    compact.add_ball(2);
    if (i % 3 == 0) {
      wide.add_ball(0);
      compact.add_ball(0);
    }
    expect_lockstep(wide, compact);
  }
  EXPECT_EQ(compact.load(2), 300u);  // well past the lane limit
  for (std::uint32_t i = 0; i < 300; ++i) {
    wide.remove_ball(2);
    compact.remove_ball(2);
    expect_lockstep(wide, compact);
  }
  EXPECT_EQ(compact.load(2), 0u);
}

// One weighted add that jumps straight across the boundary (254 -> 510)
// and a removal that jumps back (510 -> 2), so promotion/demotion also
// works when no event ever lands exactly on 255/256.
TEST(BinStateLayout, OverflowBoundaryCrossedByWeightedJumps) {
  BinState wide(3, StateLayout::kWide);
  BinState compact(3, StateLayout::kCompact);
  for (auto [bin, w] : {std::pair<std::uint32_t, std::uint32_t>{1, 254},
                        {1, 256}, {0, 1}}) {
    wide.add_ball(bin, w);
    compact.add_ball(bin, w);
    expect_lockstep(wide, compact);
  }
  EXPECT_EQ(compact.load(1), 510u);
  wide.remove_ball(1, 508);
  compact.remove_ball(1, 508);
  expect_lockstep(wide, compact);
  EXPECT_EQ(compact.load(1), 2u);
}

// The issue's named boundary: 255 -> 256 and 256 -> 255 specifically.
TEST(BinStateLayout, BoundaryAt255To256) {
  BinState wide(2, StateLayout::kWide);
  BinState compact(2, StateLayout::kCompact);
  wide.add_ball(0, 255);
  compact.add_ball(0, 255);
  expect_lockstep(wide, compact);
  wide.add_ball(0);
  compact.add_ball(0);
  expect_lockstep(wide, compact);
  EXPECT_EQ(compact.load(0), 256u);
  wide.remove_ball(0);
  compact.remove_ball(0);
  expect_lockstep(wide, compact);
  wide.remove_ball(0, 255);
  compact.remove_ball(0, 255);
  expect_lockstep(wide, compact);
  EXPECT_EQ(compact.load(0), 0u);
}

// Random weighted place+remove interleavings, uniform capacities. Weights
// up to 96 make bins cross the lane limit both ways repeatedly.
TEST(BinStateLayout, RandomWeightedInterleavingLockstep) {
  constexpr std::uint32_t kBins = 23;
  BinState wide(kBins, StateLayout::kWide);
  BinState compact(kBins, StateLayout::kCompact);
  rng::Engine gen(2024);
  for (std::uint32_t step = 0; step < 4000; ++step) {
    const auto bin = static_cast<std::uint32_t>(rng::uniform_below(gen, kBins));
    const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 96));
    const bool removable = wide.load(bin) > 0;
    if (removable && rng::uniform_below(gen, 3) == 0) {
      const auto r = static_cast<std::uint32_t>(
          1 + rng::uniform_below(gen, wide.load(bin)));
      wide.remove_ball(bin, r);
      compact.remove_ball(bin, r);
    } else {
      wide.add_ball(bin, w);
      compact.add_ball(bin, w);
    }
    if (step % 7 == 0) expect_lockstep(wide, compact);
  }
  expect_lockstep(wide, compact);
}

// The export property, checked at *every* step: copy_loads() off the
// compact state equals loads() off the wide twin throughout a random
// weighted interleaving whose loads hover around the 8-bit lane limit, so
// the walk crosses the 255 -> 256 promotion boundary (and the demotion
// way back) many times. This is the contract the law tier's consumers of
// exported load vectors rely on: the compact export is the ground truth
// vector, not an approximation of it.
TEST(BinStateLayout, CopyLoadsTracksWideLoadsAcrossPromotions) {
  constexpr std::uint32_t kBins = 11;
  BinState wide(kBins, StateLayout::kWide);
  BinState compact(kBins, StateLayout::kCompact);
  rng::Engine gen(4242);
  int crossings = 0;
  for (std::uint32_t step = 0; step < 6000; ++step) {
    const auto bin = static_cast<std::uint32_t>(rng::uniform_below(gen, kBins));
    const std::uint32_t before = wide.load(bin);
    if (before > 0 && rng::uniform_below(gen, 5) < 2) {
      const auto r = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, before));
      wide.remove_ball(bin, r);
      compact.remove_ball(bin, r);
    } else {
      const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 128));
      wide.add_ball(bin, w);
      compact.add_ball(bin, w);
    }
    if ((before <= 255) != (wide.load(bin) <= 255)) ++crossings;
    ASSERT_EQ(compact.copy_loads(), wide.loads()) << "step " << step;
  }
  EXPECT_GT(crossings, 20) << "walk never exercised the promotion boundary";
}

// Same property on a heterogeneous-capacity state: the per-class trackers
// and capacity-normalized metrics run the identical shared code path.
TEST(BinStateLayout, CapacitatedInterleavingLockstep) {
  const std::vector<std::uint32_t> caps{1, 2, 4, 8, 1, 2, 4, 8, 3, 3, 5};
  BinState wide(caps, StateLayout::kWide);
  BinState compact(caps, StateLayout::kCompact);
  const auto n = static_cast<std::uint32_t>(caps.size());
  rng::Engine gen(99);
  for (std::uint32_t step = 0; step < 3000; ++step) {
    const auto bin = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
    if (wide.load(bin) > 0 && rng::uniform_below(gen, 3) == 0) {
      wide.remove_ball(bin);
      compact.remove_ball(bin);
    } else {
      const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 64));
      wide.add_ball(bin, w);
      compact.add_ball(bin, w);
    }
    if (step % 11 == 0) expect_lockstep(wide, compact);
  }
  expect_lockstep(wide, compact);
  EXPECT_EQ(wide.total_capacity(), compact.total_capacity());
}

// clear() on a compact state that holds promoted bins must be
// indistinguishable from fresh construction (same contract as wide).
TEST(BinStateLayout, CompactClearEqualsFresh) {
  BinState used(5, StateLayout::kCompact);
  used.add_ball(1, 400);  // promoted
  used.add_ball(3, 7);
  used.clear();
  BinState fresh(5, StateLayout::kCompact);
  expect_lockstep(fresh, used);  // fresh is wide-free; both compact: loads only
  EXPECT_EQ(used.balls(), 0u);
  EXPECT_EQ(used.copy_loads(), fresh.copy_loads());
  used.add_ball(1, 2);  // and it keeps working after the reset
  EXPECT_EQ(used.load(1), 2u);
}

// Slabs of 2 MiB and up take the huge-page allocation path (2 MiB-aligned,
// MADV_HUGEPAGE on the whole-page prefix): storage only, so compact must
// still match wide under random weighted place/remove, across clear(),
// and through a copy. n = 2^21 + 3 leaves a 3-byte tail past the advised
// prefix; n = 2^22 is exactly two huge pages.
TEST(BinStateLayout, HugePageSlabLockstep) {
  constexpr std::size_t kPage = LaneSlab::kHugePageBytes;
  for (const std::uint32_t n : {(1u << 21) + 3, 1u << 22}) {
    BinState wide(n, StateLayout::kWide);
    BinState compact(n, StateLayout::kCompact);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(compact.compact_lanes()) % kPage, 0u);
    // Either the kernel accepted the advice for exactly the whole pages,
    // or (THP off) declined it.
    const std::uint64_t hp = compact.hugepage_bytes();
    EXPECT_TRUE(hp == 0 || hp == n / kPage * kPage) << hp;
    EXPECT_EQ(wide.hugepage_bytes(), 0u);

    rng::Engine gen(n);
    for (std::uint32_t step = 0; step < 20000; ++step) {
      // Every fourth event hits the last 8 bins (the unadvised tail when
      // n = 2^21 + 3) with weights that promote them past the lane limit.
      const bool tail = step % 4 == 0;
      const auto bin = static_cast<std::uint32_t>(
          tail ? n - 1 - rng::uniform_below(gen, 8) : rng::uniform_below(gen, n));
      const std::uint32_t l = wide.load(bin);
      if (l > 0 && rng::uniform_below(gen, 3) == 0) {
        const auto r = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, l));
        wide.remove_ball(bin, r);
        compact.remove_ball(bin, r);
      } else {
        const auto w = static_cast<std::uint32_t>(1 + rng::uniform_below(gen, 96));
        wide.add_ball(bin, w);
        compact.add_ball(bin, w);
      }
    }
    EXPECT_GT(compact.compact_promotions(), 0u);
    expect_lockstep(wide, compact);

    const BinState copy = compact;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.compact_lanes()) % kPage, 0u);
    expect_lockstep(wide, copy);

    wide.clear();
    compact.clear();
    expect_lockstep(wide, compact);
    expect_lockstep(BinState(n, StateLayout::kCompact), compact);
    EXPECT_EQ(compact.hugepage_bytes(), hp);  // clear() keeps the slab
  }
  const BinState small(static_cast<std::uint32_t>(kPage - 1), StateLayout::kCompact);
  EXPECT_EQ(small.hugepage_bytes(), 0u);
}

// Identical placements, not just identical metrics: every probing rule
// family streamed into both layouts from the same seed lands every ball
// in the same bin (the rules read loads only through the shared API).
TEST(BinStateLayout, RulesPlaceIdenticallyOnBothLayouts) {
  constexpr std::uint32_t kBins = 64;
  constexpr std::uint64_t kBalls = 512;
  for (const char* spec : {"one-choice", "greedy[2]", "left[2]", "memory[1,1]",
                           "threshold", "adaptive", "adaptive-net", "cuckoo[2,4]"}) {
    StreamingAllocator wide(BinState(kBins, StateLayout::kWide),
                            make_rule(spec, kBins, kBalls));
    StreamingAllocator compact(BinState(kBins, StateLayout::kCompact),
                               make_rule(spec, kBins, kBalls));
    rng::Engine gen_w(7777);
    rng::Engine gen_c(7777);
    for (std::uint64_t i = 0; i < kBalls; ++i) {
      ASSERT_EQ(wide.place(gen_w), compact.place(gen_c)) << spec << " ball " << i;
    }
    expect_lockstep(wide.state(), compact.state());
  }
}

// The probe lookahead must not change placements either: exclusive-engine
// (buffered, prefetching) and shared-engine (direct) runs of the same
// seed produce identical allocations.
TEST(BinStateLayout, LookaheadPreservesPlacementsExactly) {
  constexpr std::uint32_t kBins = 128;
  constexpr std::uint64_t kBalls = 2000;
  for (const char* spec : {"one-choice", "greedy[2]", "greedy[3]", "left[4]"}) {
    StreamingAllocator buffered(BinState(kBins, StateLayout::kCompact),
                                make_rule(spec, kBins, kBalls));
    StreamingAllocator direct(BinState(kBins, StateLayout::kWide),
                              make_rule(spec, kBins, kBalls));
    buffered.set_engine_exclusive(true);
    rng::Engine gen_b(31337);
    rng::Engine gen_d(31337);
    for (std::uint64_t i = 0; i < kBalls; ++i) {
      ASSERT_EQ(buffered.place(gen_b), direct.place(gen_d)) << spec << " ball " << i;
    }
    expect_lockstep(direct.state(), buffered.state());
  }
}

// Revoking exclusivity discards the lookahead's undrained residue: an
// allocator traced with engine A and then driven by engine B must place
// exactly like one that never buffered A's words — B's seed, nothing else,
// decides the continuation.
TEST(BinStateLayout, DisablingExclusivityDiscardsBufferedWords) {
  constexpr std::uint32_t kBins = 64;
  StreamingAllocator buffered(kBins, make_rule("greedy[2]", kBins, 0));
  StreamingAllocator direct(kBins, make_rule("greedy[2]", kBins, 0));
  rng::Engine a1(5), a2(5);
  buffered.set_engine_exclusive(true);
  (void)buffered.place(a1);  // fills the lookahead from engine A
  (void)direct.place(a2);    // same placement, no buffering
  buffered.set_engine_exclusive(false);  // must drop A's residue
  rng::Engine b1(99), b2(99);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(buffered.place(b1), direct.place(b2)) << "ball " << i;
  }
  expect_lockstep(direct.state(), buffered.state());
}

// The pre-existing golden allocation pins (tests/rng/golden_test.cpp),
// rerun by streaming the same rules into a *compact* state: bit-for-bit
// the pinned loads. The compact layout changes storage, never placement.
TEST(BinStateLayout, GoldenAdaptivePinHoldsOnCompact) {
  rng::Engine gen(42);
  BinState state(10, StateLayout::kCompact);
  const auto rule = make_rule("adaptive", 10, 100);
  for (std::uint64_t i = 0; i < 100; ++i) (void)rule->place_one(state, gen);
  EXPECT_EQ(state.copy_loads(),
            (std::vector<std::uint32_t>{9, 10, 11, 9, 10, 8, 11, 10, 11, 11}));
  EXPECT_EQ(rule->probes(), 131u);
}

TEST(BinStateLayout, GoldenThresholdPinHoldsOnCompact) {
  rng::Engine gen(42);
  BinState state(10, StateLayout::kCompact);
  const auto rule = make_rule("threshold", 10, 100);
  for (std::uint64_t i = 0; i < 100; ++i) (void)rule->place_one(state, gen);
  EXPECT_EQ(state.copy_loads(),
            (std::vector<std::uint32_t>{10, 11, 10, 6, 9, 11, 11, 11, 11, 10}));
  EXPECT_EQ(rule->probes(), 104u);
}

}  // namespace
}  // namespace bbb::core
