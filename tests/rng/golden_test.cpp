/// Regression pins for the engines and the stream-derivation scheme.
///
/// Every experiment in EXPERIMENTS.md was produced with these exact output
/// sequences; if any of these tests fails, the change silently invalidates
/// all recorded results (and every "same seed => same loads" expectation in
/// downstream projects). The values were captured from this implementation
/// at v1.0 — they are *pins*, not external test vectors (SplitMix64's
/// known-answer vectors live in splitmix64_test.cpp).

#include <gtest/gtest.h>

#include "bbb/rng/splitmix64.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::rng {
namespace {

// Seeds 0 and 42 for the engine, matching the SplitMix64 pin pair below:
// seed 0 exercises the all-zero-state seeding path (SplitMix64 expansion
// must keep the engine state nonzero), seed 42 is the implementation pin
// every recorded experiment used.
TEST(GoldenPins, Xoshiro256Seed0) {
  Xoshiro256PlusPlus gen(0);
  EXPECT_EQ(gen(), 0x53175d61490b23dfULL);
  EXPECT_EQ(gen(), 0x61da6f3dc380d507ULL);
  EXPECT_EQ(gen(), 0x5c0fdf91ec9a7bfcULL);
  EXPECT_EQ(gen(), 0x02eebf8c3bbe5e1aULL);
}

TEST(GoldenPins, Xoshiro256Seed42) {
  Xoshiro256PlusPlus gen(42);
  EXPECT_EQ(gen(), 0xd0764d4f4476689fULL);
  EXPECT_EQ(gen(), 0x519e4174576f3791ULL);
  EXPECT_EQ(gen(), 0xfbe07cfb0c24ed8cULL);
  EXPECT_EQ(gen(), 0xb37d9f600cd835b8ULL);
}

// First four outputs for seed 0 (the published SplittableRandom / xoshiro
// seeding vectors) and for seed 42 (implementation pin). SplitMix64 seeds
// the engine above AND derives every replicate stream, so a silent
// cross-platform divergence here would shift every recorded experiment.
TEST(GoldenPins, SplitMix64SeedZero) {
  SplitMix64 gen(0);
  EXPECT_EQ(gen(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(gen(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(gen(), 0x06c45d188009454fULL);
  EXPECT_EQ(gen(), 0xf88bb8a8724c81ecULL);
}

TEST(GoldenPins, SplitMix64Seed42) {
  SplitMix64 gen(42);
  EXPECT_EQ(gen(), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(gen(), 0x28efe333b266f103ULL);
  EXPECT_EQ(gen(), 0x47526757130f9f52ULL);
  EXPECT_EQ(gen(), 0x581ce1ff0e4ae394ULL);
}

TEST(GoldenPins, DeriveSeedMaster42) {
  EXPECT_EQ(derive_seed(42, 0), 0x34f0b9acbcef321fULL);
  EXPECT_EQ(derive_seed(42, 1), 0xe327554e5c585148ULL);
}

}  // namespace
}  // namespace bbb::rng

#include "bbb/core/protocols/registry.hpp"

namespace bbb::core {
namespace {

// End-to-end pins: engine -> Lemire bounded uniform -> protocol logic.
// A change anywhere in that chain moves these loads.
TEST(GoldenPins, AdaptiveSeed42M100N10) {
  rng::Engine gen(42);
  const auto res = make_protocol("adaptive")->run(100, 10, gen);
  EXPECT_EQ(res.loads,
            (std::vector<std::uint32_t>{9, 10, 11, 9, 10, 8, 11, 10, 11, 11}));
  EXPECT_EQ(res.probes, 131u);
}

TEST(GoldenPins, ThresholdSeed42M100N10) {
  rng::Engine gen(42);
  const auto res = make_protocol("threshold")->run(100, 10, gen);
  EXPECT_EQ(res.loads,
            (std::vector<std::uint32_t>{10, 11, 10, 6, 9, 11, 11, 11, 11, 10}));
  EXPECT_EQ(res.probes, 104u);
}

}  // namespace
}  // namespace bbb::core
