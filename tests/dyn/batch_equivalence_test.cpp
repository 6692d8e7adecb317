/// The API-pinning property of the unified streaming core: every registry
/// rule with batch_equivalent(), fed an arrivals-only event stream,
/// reproduces the matching batch Protocol::run result *bit-for-bit* from
/// the same engine state — identical loads, identical probe counts, and
/// identical final engine state (so the two drivers consume randomness in
/// lockstep by construction, not just converge in distribution).
///
/// The two documented exceptions carry batch_equivalent() == false:
///   * batched — its batch form is the round-synchronous LW protocol over
///     the whole ball set, not a place_one loop;
///   * self-balancing — its batch form appends the balancing sweeps
///     (finalize), which an open-ended stream never reaches.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"

namespace bbb::dyn {
namespace {

using core::make_streaming_allocator;

struct Shape {
  std::uint64_t m;
  std::uint32_t n;
};

const Shape kShapes[] = {{1, 1}, {7, 3}, {100, 10}, {257, 64}, {1000, 33}};
const std::uint64_t kSeeds[] = {1, 42, 0xdeadbeef};

// Parameters valid at every shape above need n >= some minimum; the sweep
// skips shapes a spec cannot run at (left[d]/cuckoo[d,k] need d <= n,
// stale-adaptive[delta] needs delta <= n).
std::uint32_t min_bins(const std::string& spec) {
  if (spec.rfind("left[", 0) == 0) return spec[5] - '0';
  if (spec.rfind("stale-adaptive[", 0) == 0) return spec[15] - '0';
  if (spec.rfind("cuckoo", 0) == 0) return 2;
  return 1;
}

void expect_bitwise_equal(const std::string& spec, Shape shape, std::uint64_t seed) {
  rng::Engine batch_gen(seed), dyn_gen(seed);

  const auto protocol = core::make_protocol(spec);
  const core::AllocationResult batch = protocol->run(shape.m, shape.n, batch_gen);

  // The m hint binds fixed-bound rules (threshold) to the same total the
  // batch run received. Engine exclusivity matches Protocol::run
  // (which promises it too), so rules with a probe lookahead read
  // ahead identically on both sides — this sweep is also the end-to-end
  // proof that the lookahead's FIFO buffering changes no consumed word.
  const auto alloc = make_streaming_allocator(spec, shape.n, shape.m);
  alloc->set_engine_exclusive(true);
  for (std::uint64_t i = 0; i < shape.m; ++i) alloc->place(dyn_gen);

  EXPECT_EQ(alloc->state().loads(), batch.loads)
      << spec << " m=" << shape.m << " n=" << shape.n << " seed=" << seed;
  EXPECT_EQ(alloc->probes(), batch.probes) << spec;
  EXPECT_EQ(alloc->state().balls(), batch.balls) << spec;
  // Same draws in the same order (including any lookahead read-ahead):
  // the engines end in the same state.
  EXPECT_TRUE(dyn_gen == batch_gen) << spec;
}

// Every batch-equivalent spec shape in the registry, swept over the shape
// and seed grid.
const char* const kEquivalentSpecs[] = {
    "one-choice",        "greedy[2]",     "greedy[3]",
    "greedy[5]",         "left[2]",       "left[4]",
    "memory[1,1]",       "memory[2,2]",   "threshold",
    "threshold[0]",      "threshold[2]",  "doubling-threshold[0]",
    "doubling-threshold[7]",              "adaptive",
    "adaptive[0]",       "adaptive[2]",   "adaptive-net",
    "adaptive-net[2]",   "adaptive-total", "adaptive-total[2]",
    "stale-adaptive[1]", "stale-adaptive[3]",
    "skewed-adaptive[0]", "skewed-adaptive[75]",
    "cuckoo[2,4]",       "cuckoo[3,2]",
};

class BatchEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchEquivalenceTest, StreamingReproducesBatchBitForBit) {
  const std::string spec = GetParam();
  ASSERT_TRUE(core::make_rule(spec, 8, 8)->batch_equivalent()) << spec;
  for (const Shape shape : kShapes) {
    if (shape.n < min_bins(spec)) continue;
    for (const std::uint64_t seed : kSeeds) {
      expect_bitwise_equal(spec, shape, seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEquivalentRules, BatchEquivalenceTest,
                         ::testing::ValuesIn(kEquivalentSpecs));

TEST(BatchEquivalence, ExceptionsDeclareThemselves) {
  // The two rules whose batch form is not the place_one loop say so; the
  // sweep above relies on this trait to be exhaustive over the rest.
  EXPECT_FALSE(core::make_rule("batched[2]", 8)->batch_equivalent());
  EXPECT_FALSE(core::make_rule("self-balancing", 8)->batch_equivalent());
  EXPECT_TRUE(core::make_rule("adaptive", 8)->batch_equivalent());
}

TEST(BatchEquivalence, AdaptiveNetEqualsAdaptiveWithoutDepartures) {
  // With no departures, net == total, so all three adaptive spellings are
  // the same process — the variants only diverge once balls leave.
  for (const Shape shape : kShapes) {
    for (const std::uint64_t seed : kSeeds) {
      rng::Engine g1(seed), g2(seed);
      const auto batch = core::make_protocol("adaptive")->run(shape.m, shape.n, g1);
      const auto alloc = make_streaming_allocator("adaptive-net", shape.n);
      for (std::uint64_t i = 0; i < shape.m; ++i) alloc->place(g2);
      EXPECT_EQ(alloc->state().loads(), batch.loads);
      EXPECT_EQ(alloc->probes(), batch.probes);
      EXPECT_TRUE(g1 == g2);
    }
  }
}

TEST(BatchEquivalence, SeedSequenceReplicateStreamsMatchToo) {
  // The engine derives replicate streams via SeedSequence; the pinning
  // holds through that path as well (what run_dynamic_replicate uses).
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    rng::Engine batch_gen = rng::SeedSequence(42).engine(rep);
    rng::Engine dyn_gen = rng::SeedSequence(42).engine(rep);
    const auto protocol = core::make_protocol("adaptive");
    const core::AllocationResult batch = protocol->run(500, 25, batch_gen);
    const auto alloc = make_streaming_allocator("adaptive-net", 25);
    for (int i = 0; i < 500; ++i) alloc->place(dyn_gen);
    EXPECT_EQ(alloc->state().loads(), batch.loads) << "replicate " << rep;
    EXPECT_EQ(alloc->probes(), batch.probes);
    EXPECT_TRUE(dyn_gen == batch_gen);
  }
}

}  // namespace
}  // namespace bbb::dyn
