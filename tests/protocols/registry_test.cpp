#include "bbb/core/protocols/registry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bbb/core/protocols/bounded_probe.hpp"
#include "bbb/core/spec.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {
namespace {

TEST(Registry, BuildsEveryListedShape) {
  for (const auto& spec :
       {"one-choice", "greedy[2]", "left[3]", "memory[1,1]", "threshold",
        "threshold[2]", "adaptive", "adaptive[0]", "adaptive-net", "adaptive-net[2]",
        "adaptive-total", "batched[2]", "self-balancing", "cuckoo[2,4]"}) {
    EXPECT_NO_THROW((void)make_protocol(spec)) << spec;
  }
}

TEST(Registry, RuleFactoryBuildsEveryListedShape) {
  // The same grammar backs the streaming factory; names round-trip and the
  // rule's canonical name equals the batch protocol's.
  for (const auto& spec :
       {"one-choice", "greedy[2]", "left[3]", "memory[1,1]", "threshold",
        "threshold[2]", "doubling-threshold[0]", "adaptive", "adaptive-net",
        "adaptive-total[2]", "stale-adaptive[4]", "skewed-adaptive[50]", "batched[2]",
        "self-balancing", "cuckoo[2,4]"}) {
    const auto rule = make_rule(spec, 16);
    const auto again = make_rule(rule->name(), 16);
    EXPECT_EQ(again->name(), rule->name()) << spec;
    EXPECT_EQ(make_protocol(spec)->name(), rule->name()) << spec;
  }
}

TEST(Registry, RuleFactoryRejectsUnknownAndMalformed) {
  EXPECT_THROW((void)make_rule("nonsense", 8), std::invalid_argument);
  EXPECT_THROW((void)make_rule("greedy[", 8), std::invalid_argument);
  EXPECT_THROW((void)make_rule("left[9]", 8), std::invalid_argument);  // d > n
}

// Round-trip: the canonical name() of a built protocol must itself be a
// valid spec that builds an equivalent protocol.
class RegistryRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryRoundTripTest, NameParsesBack) {
  const auto p1 = make_protocol(GetParam());
  const auto p2 = make_protocol(p1->name());
  EXPECT_EQ(p1->name(), p2->name());
  // Equivalence beyond the name: same seed, same result. (m = 100, n = 32
  // satisfies every protocol's feasibility constraints, e.g. batched[4].)
  rng::Engine g1(5), g2(5);
  const auto r1 = p1->run(100, 32, g1);
  const auto r2 = p2->run(100, 32, g2);
  EXPECT_EQ(r1.loads, r2.loads);
}

// One parsed Protocol serves every replicate of a run: each bind is a
// fresh rule over a fresh state, bit-identical to what the one-call factory
// builds — loads, counters and engine consumption — in either layout.
TEST_P(RegistryRoundTripTest, BoundTwiceMatchesTheFactory) {
  const auto protocol = make_protocol(GetParam());
  for (const StateLayout layout : {StateLayout::kCompact, StateLayout::kWide}) {
    const auto expected = make_streaming_allocator(GetParam(), 32, 100, layout);
    rng::Engine expected_gen(5);
    expected->set_engine_exclusive(true);
    expected->run_batch(100, expected_gen);
    const AllocationResult want = expected->result();
    for (int bind = 0; bind < 2; ++bind) {
      const auto alloc = protocol->bind(32, 100, layout);
      rng::Engine gen(5);
      alloc->set_engine_exclusive(true);
      alloc->run_batch(100, gen);
      const AllocationResult got = alloc->result();
      const std::string where = GetParam() + " " + std::string(to_string(layout));
      EXPECT_EQ(alloc->name(), expected->name()) << where;
      EXPECT_EQ(got.loads, want.loads) << where;
      EXPECT_EQ(got.balls, want.balls) << where;
      EXPECT_EQ(got.probes, want.probes) << where;
      EXPECT_EQ(got.reallocations, want.reallocations) << where;
      EXPECT_EQ(got.rounds, want.rounds) << where;
      EXPECT_EQ(got.completed, want.completed) << where;
      EXPECT_EQ(gen, expected_gen) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, RegistryRoundTripTest,
                         ::testing::Values("one-choice", "greedy[3]", "left[2]",
                                           "memory[2,1]", "threshold", "threshold[3]",
                                           "adaptive", "adaptive[2]", "batched[4]",
                                           "self-balancing", "cuckoo[2,4]",
                                           "stale-adaptive[16]",
                                           "capacities=1,2:greedy[2]"));

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_protocol("nonsense"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol(""), std::invalid_argument);
}

TEST(Registry, MalformedSpecsThrow) {
  EXPECT_THROW((void)make_protocol("greedy["), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("greedy[]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("greedy[x]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("greedy"), std::invalid_argument);  // missing d
  EXPECT_THROW((void)make_protocol("memory[1]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("threshold[1,2]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("one-choice[1]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("self-balancing[2]"), std::invalid_argument);
}

TEST(Registry, InvalidParametersPropagate) {
  EXPECT_THROW((void)make_protocol("greedy[0]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("memory[0,1]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("batched[0]"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("cuckoo[0,4]"), std::invalid_argument);
}

TEST(Registry, ChoiceCountIsCappedAtParse) {
  static_assert(kMaxChoices == 1024);
  const auto greedy = make_streaming_allocator("greedy[1024]", 16, 64);
  EXPECT_EQ(greedy->name(), "greedy[1024]");
  rng::Engine gen(1);
  greedy->run_batch(64, gen);
  EXPECT_EQ(greedy->state().balls(), 64u);
  EXPECT_EQ(make_streaming_allocator("memory[1024,1]", 16, 64)->name(), "memory[1024,1]");
  // Rejected before any rule or state exists, whatever n is.
  for (const char* spec : {"greedy[1025]", "greedy[4294967295]", "memory[1025,1]",
                           "memory[4294967295,1]"}) {
    EXPECT_THROW((void)make_protocol(spec), std::invalid_argument) << spec;
    EXPECT_THROW((void)make_streaming_allocator(spec, 16, 64), std::invalid_argument)
        << spec;
  }
}

TEST(Registry, BothFactoriesAgreeOnBatchedArgs) {
  // One grammar across the factories: every spec either builds in both the
  // batch factory and the streaming one (at n = 64, where no n-dependent
  // limit bites) under the same canonical name, or both reject it with
  // std::invalid_argument. Overflowing arguments are rejected, not
  // truncated; arity and zero-count errors are caught by the parse alone.
  struct Case {
    const char* spec;
    bool valid;
  };
  const Case cases[] = {
      {"one-choice", true},           {"one-choice[1]", false},
      {"greedy[2]", true},            {"greedy[0]", false},
      {"greedy", false},              {"greedy[4294967297]", false},
      {"left[2]", true},              {"left[0]", false},
      {"memory[1,1]", true},          {"memory[0,1]", false},
      {"memory[1,0]", false},         {"memory[1]", false},
      {"threshold", true},            {"threshold[0]", true},
      {"threshold[1,2]", false},      {"doubling-threshold", true},
      {"doubling-threshold[7]", true}, {"doubling-threshold[1,2]", false},
      {"adaptive", true},             {"adaptive[0]", true},
      {"adaptive-net[2]", true},      {"adaptive-total[1,2]", false},
      {"stale-adaptive[4]", true},    {"stale-adaptive[0]", false},
      {"skewed-adaptive[50]", true},  {"skewed-adaptive", false},
      {"batched", true},              {"batched[2]", true},
      {"batched[0]", false},          {"batched[2,9]", false},
      {"batched[4294967297]", false}, {"self-balancing", true},
      {"self-balancing[2]", false},   {"cuckoo[2,4]", true},
      {"cuckoo[0,4]", false},         {"cuckoo[2,0]", false},
      {"capacities=1,2:greedy[2]", true},
      {"capacities=1,2:greedy[0]", false},
      {"capacities=0:greedy[2]", false},
      {"shards[2]:capacities=1,2:greedy[2]", false},
      {"shards[257]:greedy[2]", false},
      {"weighted:greedy[2]", false},  {"nonsense", false},
  };
  for (const Case& c : cases) {
    if (c.valid) {
      std::unique_ptr<Protocol> protocol;
      std::unique_ptr<StreamingAllocator> alloc;
      EXPECT_NO_THROW(protocol = make_protocol(c.spec)) << c.spec;
      EXPECT_NO_THROW(alloc = make_streaming_allocator(c.spec, 64)) << c.spec;
      if (protocol && alloc) {
        EXPECT_EQ(protocol->name(), alloc->name()) << c.spec;
      }
    } else {
      EXPECT_THROW((void)make_protocol(c.spec), std::invalid_argument) << c.spec;
      EXPECT_THROW((void)make_streaming_allocator(c.spec, 64), std::invalid_argument)
          << c.spec;
    }
  }
  // The shard cap is n-independent: shards[256] parses, shards[257] above
  // does not.
  EXPECT_EQ(make_protocol("shards[256]:greedy[2]")->name(), "shards[256]:greedy[2]");
  EXPECT_EQ(make_protocol("batched")->name(), "batched[2]");
  EXPECT_EQ(make_rule("batched", 8)->name(), "batched[2]");
}

TEST(Registry, ProtocolRunChecksNDependentLimits) {
  // make_protocol parses only; limits that need n surface at run().
  const auto protocol = make_protocol("left[9]");
  rng::Engine gen(1);
  EXPECT_THROW((void)protocol->run(10, 8, gen), std::invalid_argument);  // d > n
  EXPECT_NO_THROW((void)protocol->run(10, 9, gen));
}

TEST(Registry, ThresholdBoundDomainCheckedAtBind) {
  // threshold[c] at n = 16, m = 64 accepts load <= ceil(m/n) + c - 1 =
  // c + 3. A slack whose bound passes 2^32 - 1 is rejected at bind — a
  // uint32 bound would wrap to 2, 1 or 0 and die mid-run instead.
  for (const char* spec :
       {"threshold[4294967295]", "threshold[4294967294]", "threshold[4294967293]"}) {
    EXPECT_THROW((void)make_rule(spec, 16, 64), std::invalid_argument) << spec;
    const auto protocol = make_protocol(spec);
    rng::Engine gen(1);
    EXPECT_THROW((void)protocol->run(64, 16, gen), std::invalid_argument) << spec;
  }
  const auto rule = make_rule("threshold[4294967292]", 16, 64);
  EXPECT_EQ(dynamic_cast<const BoundedProbeRule&>(*rule).accept_bound(BinState(16)),
            4294967295u);
  rng::Engine gen(1);
  EXPECT_NO_THROW((void)make_protocol("threshold[4294967292]")->run(64, 16, gen));
}

TEST(Registry, SpecListNonEmptyAndDocumentsShapes) {
  const auto specs = protocol_specs();
  EXPECT_GE(specs.size(), 10u);
}

}  // namespace
}  // namespace bbb::core
