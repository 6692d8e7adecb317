/// Bit-for-bit pins for the bounded-probe rules under departures.
///
/// The batch pins in tests/protocols/golden_pins_test.cpp (n = 10,
/// m = 100, arrivals only) cannot tell the adaptive family's clocks apart:
/// with no departures the placed count and the net count coincide, and a
/// stale counter that lags less than a stage computes the same bound. Each
/// case here runs one fixed place/remove interleaving through
/// make_streaming_allocator at n = 10 — 100 arrivals, then 200 events
/// alternating a uniform-ball removal with an arrival — so the placed,
/// net, stale, doubling and fixed clocks each leave a different trace.
///
/// Like every golden pin the values were captured from this
/// implementation; they exist so a refactor that changes when a bound
/// moves shows up as a diff here. Victims are drawn by the test itself
/// (a uniform ball index walked over the loads) from the same engine, so
/// the pins depend only on the rule and rng::uniform_below.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::dyn {
namespace {

struct Pin {
  std::vector<std::uint32_t> loads;
  std::uint64_t probes = 0;
  std::uint64_t total_placed = 0;
};

constexpr std::uint32_t kBins = 10;
constexpr int kArrivals = 100;
constexpr int kChurnEvents = 200;

/// The bin holding a uniformly random ball.
std::uint32_t uniform_ball_bin(const core::BinState& state, rng::Engine& gen) {
  std::uint64_t k = rng::uniform_below(gen, state.balls());
  for (std::uint32_t b = 0;; ++b) {
    if (k < state.load(b)) return b;
    k -= state.load(b);
  }
}

void expect_pin(const std::string& spec, std::uint64_t m_hint, const Pin& pin) {
  const auto alloc = core::make_streaming_allocator(spec, kBins, m_hint);
  rng::Engine gen(42);
  for (int i = 0; i < kArrivals; ++i) alloc->place(gen);
  for (int e = 0; e < kChurnEvents; ++e) {
    if (e % 2 == 0) {
      alloc->remove(uniform_ball_bin(alloc->state(), gen));
    } else {
      alloc->place(gen);
    }
  }
  EXPECT_EQ(alloc->state().loads(), pin.loads) << spec;
  EXPECT_EQ(alloc->probes(), pin.probes) << spec;
  EXPECT_EQ(alloc->total_placed(), pin.total_placed) << spec;
  EXPECT_EQ(alloc->state().balls(), static_cast<std::uint64_t>(kArrivals)) << spec;
}

TEST(DynGoldenPins, Adaptive) {
  expect_pin("adaptive", 0,
             {.loads = {9, 12, 5, 5, 8, 12, 10, 14, 10, 15},
              .probes = 232,
              .total_placed = 200});
}

TEST(DynGoldenPins, AdaptiveSlack0) {
  expect_pin("adaptive[0]", 0,
             {.loads = {11, 7, 11, 9, 13, 10, 9, 8, 10, 12},
              .probes = 380,
              .total_placed = 200});
}

TEST(DynGoldenPins, AdaptiveNet) {
  expect_pin("adaptive-net", 0,
             {.loads = {10, 10, 11, 11, 11, 10, 10, 11, 7, 9},
              .probes = 291,
              .total_placed = 200});
}

TEST(DynGoldenPins, AdaptiveNetSlack0) {
  expect_pin("adaptive-net[0]", 0,
             {.loads = {10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
              .probes = 1138,
              .total_placed = 200});
}

TEST(DynGoldenPins, AdaptiveTotal) {
  expect_pin("adaptive-total", 0,
             {.loads = {9, 12, 5, 5, 8, 12, 10, 14, 10, 15},
              .probes = 232,
              .total_placed = 200});
}

TEST(DynGoldenPins, Threshold) {
  expect_pin("threshold", 100,
             {.loads = {8, 10, 11, 9, 11, 7, 11, 11, 11, 11},
              .probes = 253,
              .total_placed = 200});
}

TEST(DynGoldenPins, ThresholdSlack0) {
  expect_pin("threshold[0]", 100,
             {.loads = {10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
              .probes = 1052,
              .total_placed = 200});
}

TEST(DynGoldenPins, DoublingThreshold) {
  expect_pin("doubling-threshold", 0,
             {.loads = {13, 13, 4, 2, 12, 9, 11, 13, 8, 15},
              .probes = 206,
              .total_placed = 200});
}

TEST(DynGoldenPins, DoublingThresholdGuess7) {
  expect_pin("doubling-threshold[7]", 0,
             {.loads = {7, 8, 17, 13, 8, 8, 15, 6, 11, 7},
              .probes = 207,
              .total_placed = 200});
}

TEST(DynGoldenPins, StaleAdaptiveDelta4) {
  expect_pin("stale-adaptive[4]", 0,
             {.loads = {14, 11, 4, 4, 10, 8, 9, 15, 10, 15},
              .probes = 238,
              .total_placed = 200});
}

TEST(DynGoldenPins, SkewedAdaptive50) {
  expect_pin("skewed-adaptive[50]", 0,
             {.loads = {17, 16, 7, 13, 8, 15, 10, 6, 5, 3},
              .probes = 249,
              .total_placed = 200});
}

}  // namespace
}  // namespace bbb::dyn
