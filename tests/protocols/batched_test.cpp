#include "bbb/core/protocols/batched.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"
#include "bbb/rng/streams.hpp"
#include "bbb/theory/bounds.hpp"

namespace bbb::core {
namespace {

/// The LW rounds with non-default round/fanout caps: BatchedRule's batch
/// hook over a fresh wide state (what make_protocol("batched[c]") runs
/// with the 64/64 defaults).
AllocationResult run_lw(BatchedRule rule, std::uint64_t m, std::uint32_t n,
                        rng::Engine& gen) {
  StreamingAllocator alloc(n, std::make_unique<BatchedRule>(rule));
  alloc.run_batch(m, gen);
  return alloc.result();
}

TEST(Batched, Validation) {
  EXPECT_THROW(BatchedRule(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(BatchedRule(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(BatchedRule(1, 1, 0), std::invalid_argument);
}

TEST(Batched, ImpossibleLoadRejected) {
  rng::Engine gen(1);
  EXPECT_THROW((void)run_lw(BatchedRule(2, 16, 16), 33, 16, gen),  // 33 > 2*16
               std::invalid_argument);
}

TEST(Batched, LwRoundsAreTheSameInBothLayouts) {
  // The rounds read load() and call add_ball() only, so a compact state
  // runs them bit for bit as a wide one — past the 8-bit lane limit too.
  struct Case {
    const char* spec;
    std::uint64_t m;
    std::uint32_t n;
  };
  for (const Case& c : {Case{"batched[2]", 1 << 12, 1 << 12},
                        Case{"batched[300]", 280 * 64, 64}}) {
    const auto p = make_protocol(c.spec);
    const auto wide = p->bind(c.n, c.m, StateLayout::kWide);
    const auto compact = p->bind(c.n, c.m, StateLayout::kCompact);
    rng::Engine gen_wide(9);
    rng::Engine gen_compact(9);
    wide->run_batch(c.m, gen_wide);
    compact->run_batch(c.m, gen_compact);
    EXPECT_GE(wide->rule().rounds(), 1u) << c.spec;
    EXPECT_EQ(wide->rule().rounds(), compact->rule().rounds()) << c.spec;
    EXPECT_EQ(wide->probes(), compact->probes()) << c.spec;
    EXPECT_EQ(wide->state().copy_loads(), compact->state().copy_loads()) << c.spec;
    EXPECT_EQ(gen_wide, gen_compact) << c.spec;
  }
}

TEST(Batched, CapacityIsNeverExceeded) {
  const auto p = make_protocol("batched[2]");
  rng::Engine gen(2);
  const AllocationResult res = p->run(1 << 12, 1 << 12, gen);
  for (std::uint32_t l : res.loads) EXPECT_LE(l, 2u);
}

TEST(Batched, CompletesAtMEqualsNCapacityTwo) {
  // The Lenzen-Wattenhofer regime: capacity 2 suffices to place n balls in
  // n bins within very few rounds.
  const auto p = make_protocol("batched[2]");
  rng::Engine gen(3);
  const AllocationResult res = p->run(1 << 14, 1 << 14, gen);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.balls, std::uint64_t{1} << 14);
  EXPECT_LE(res.rounds, 12u);
}

TEST(Batched, RoundsScaleLikeLogStar) {
  // log*(2^20) = 4-ish; rounds should be a small single-digit multiple.
  const auto p = make_protocol("batched[2]");
  rng::Engine gen(4);
  const AllocationResult res = p->run(1 << 16, 1 << 16, gen);
  EXPECT_TRUE(res.completed);
  const std::uint32_t ls = theory::log_star(static_cast<double>(1 << 16));
  EXPECT_LE(res.rounds, 4 * ls + 6);
}

TEST(Batched, TightCapacityWithOneRoundLeavesBallsUnplaced) {
  // capacity 1, one round, m = n: collisions are certain at this size, so
  // the run cannot complete.
  rng::Engine gen(5);
  const AllocationResult res = run_lw(BatchedRule(1, 1, 1), 4096, 4096, gen);
  EXPECT_FALSE(res.completed);
  EXPECT_LT(res.balls, 4096u);
  EXPECT_EQ(res.rounds, 1u);
}

TEST(Batched, EventuallyFillsPerfectMatchWithCapacityOne) {
  // capacity 1 and m = n is a perfect-matching demand: every bin ends with
  // exactly one ball. Doubling fanout makes this converge.
  const auto p = make_protocol("batched[1]");
  rng::Engine gen(6);
  const AllocationResult res = p->run(1024, 1024, gen);
  EXPECT_TRUE(res.completed);
  for (std::uint32_t l : res.loads) EXPECT_EQ(l, 1u);
}

TEST(Batched, MessagesAreLinearish) {
  // O(n) messages in the LW sense: allow a small constant factor.
  const auto p = make_protocol("batched[2]");
  rng::Engine gen(7);
  const std::uint64_t n = 1 << 14;
  const AllocationResult res = p->run(n, static_cast<std::uint32_t>(n), gen);
  EXPECT_LE(res.probes, 8 * n);
}

TEST(Batched, ZeroBallsTrivial) {
  rng::Engine gen(8);
  const AllocationResult res = run_lw(BatchedRule(2, 4, 4), 0, 16, gen);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.rounds, 0u);
  EXPECT_EQ(res.probes, 0u);
}

}  // namespace
}  // namespace bbb::core
