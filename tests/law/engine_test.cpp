#include "bbb/law/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>


namespace bbb::law {
namespace {

// ---------------------------------------------------------------- spec parsing

TEST(LawSpecParsing, RecognizedSpecs) {
  LawConfig cfg;
  cfg.m = 1 << 10;
  cfg.n = 1 << 10;
  cfg.replicates = 2;

  cfg.protocol_spec = "one-choice";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");
  EXPECT_TRUE(run_law_experiment(cfg).sampled);

  // Degenerate d-choice mixtures ARE one-choice; the engine samples them
  // exactly instead of settling for the fluid curve.
  cfg.protocol_spec = "greedy[1]";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");
  cfg.protocol_spec = "mixed[2,0]";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");
  cfg.protocol_spec = "mixed[1,100]";
  EXPECT_EQ(run_law_experiment(cfg).protocol_name, "one-choice");

  cfg.protocol_spec = "greedy[2]";
  const LawSummary greedy = run_law_experiment(cfg);
  EXPECT_EQ(greedy.protocol_name, "greedy[2]");
  EXPECT_FALSE(greedy.sampled);

  cfg.protocol_spec = "mixed[2,50]";
  const LawSummary mixed = run_law_experiment(cfg);
  EXPECT_EQ(mixed.protocol_name, "mixed[2,50]");
  EXPECT_FALSE(mixed.sampled);
}

TEST(LawSpecParsing, RejectsMalformedSpecs) {
  LawConfig cfg;
  cfg.m = cfg.n = 16;
  for (const char* bad :
       {"greedy", "greedy[0]", "greedy[2", "greedy[x]", "one-choice[2]",
        "mixed[2]", "mixed[0,50]", "mixed[2,101]", "adaptive", "left[2]", "",
        // d must fit 32 bits: these used to narrow to greedy[2] / mixed[2,50].
        "greedy[4294967298]", "mixed[4294967298,50]", "greedy[2,]", "greedy[-1]"}) {
    cfg.protocol_spec = bad;
    EXPECT_THROW(run_law_experiment(cfg), std::invalid_argument) << bad;
  }
}

TEST(LawConfigValidation, RejectsBadSizes) {
  LawConfig cfg;
  cfg.m = 16;
  cfg.n = 0;
  EXPECT_THROW(run_law_experiment(cfg), std::invalid_argument);
  cfg.n = 16;
  cfg.replicates = 0;
  EXPECT_THROW(run_law_experiment(cfg), std::invalid_argument);
  // Fluid specs have no replicates to run; 0 is fine there.
  cfg.protocol_spec = "greedy[2]";
  EXPECT_NO_THROW(run_law_experiment(cfg));
}

// ------------------------------------------------------------- sampled summary

TEST(LawEngine, SampledSummaryShape) {
  LawConfig cfg;
  cfg.m = 1 << 12;
  cfg.n = 1 << 12;
  cfg.replicates = 5;
  cfg.seed = 42;
  const LawSummary s = run_law_experiment(cfg);

  EXPECT_EQ(s.max_load.count(), 5u);
  EXPECT_EQ(s.records.size(), 5u);
  // Replicate 0 uses SeedSequence(42).engine(0) — exactly the golden-pin
  // stream of tests/law/one_choice_test.cpp (max load 7 at m = n = 4096).
  EXPECT_DOUBLE_EQ(s.records[0].max_load, 7.0);
  // Aggregated level counts cover n bins per replicate.
  EXPECT_EQ(std::accumulate(s.level_counts.begin(), s.level_counts.end(),
                            std::uint64_t{0}),
            5ull << 12);
  // Balls conservation via the level identity sum j*K_j = m per replicate.
  std::uint64_t balls = 0;
  for (std::size_t j = 0; j < s.level_counts.size(); ++j) balls += j * s.level_counts[j];
  EXPECT_EQ(balls, 5ull << 12);

  LawConfig lean = cfg;
  lean.keep_records = false;
  const LawSummary sl = run_law_experiment(lean);
  EXPECT_TRUE(sl.records.empty());
  EXPECT_EQ(sl.max_load.count(), 5u);
  EXPECT_DOUBLE_EQ(sl.max_load.mean(), s.max_load.mean());
}

// ----------------------------------------------------------------- fluid side

TEST(LawEngine, OneChoiceFluidCurveIsPoisson) {
  LawConfig cfg;
  cfg.m = 1 << 12;
  cfg.n = 1 << 12;
  cfg.replicates = 2;
  const LawSummary s = run_law_experiment(cfg);
  // t = 1: s_1 = P(Poi(1) >= 1) = 1 - 1/e.
  ASSERT_GE(s.fluid_tails.size(), 2u);
  EXPECT_NEAR(s.fluid_tails[0], 1.0 - std::exp(-1.0), 1e-8);
  EXPECT_NEAR(s.fluid_tails[1], 1.0 - 2.0 * std::exp(-1.0), 1e-8);
}

TEST(LawEngine, GreedyTwoAtAstronomicalN) {
  // The double-log pin: greedy[2]'s fluid max load at m = n = 2^40 is 5
  // (n s_5 < 1/2 but n s_4 >> 1; see docs/EXPERIMENTS.md law section).
  LawConfig cfg;
  cfg.protocol_spec = "greedy[2]";
  cfg.m = 1ULL << 40;
  cfg.n = 1ULL << 40;
  const LawSummary s = run_law_experiment(cfg);
  EXPECT_FALSE(s.sampled);
  EXPECT_EQ(s.fluid_max_load, 5u);
  EXPECT_DOUBLE_EQ(s.max_load.mean(), 5.0);
  EXPECT_EQ(s.max_load.count(), 1u);
}

TEST(LawEngine, FluidMinLoadRisesWithDensity) {
  // t = 16 at modest n: the left Poisson tail below some level empties out,
  // so the fluid minimum must sit above 0 (and below the average, 16).
  LawConfig cfg;
  cfg.m = 16ull << 10;
  cfg.n = 1 << 10;
  cfg.replicates = 2;
  const LawSummary s = run_law_experiment(cfg);
  EXPECT_GT(s.fluid_min_load, 0u);
  EXPECT_LT(s.fluid_min_load, 16u);
  EXPECT_GT(s.fluid_max_load, 16u);
}

// ------------------------------------------------------------- parallel fold

TEST(LawEngine, SummaryIsIdenticalForAnyThreadCount) {
  // Replicates sample concurrently (the TSan build runs this with real
  // threads — it caught lgamma's signgam race); the fold runs in
  // replicate order, so every statistic, record and level count is
  // bit-identical on 1 and 4 workers.
  LawConfig cfg;
  cfg.m = 1 << 14;
  cfg.n = 1 << 12;
  cfg.replicates = 12;
  cfg.seed = 7;
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const LawSummary a = run_law_experiment(cfg, one);
  const LawSummary b = run_law_experiment(cfg, four);
  EXPECT_EQ(a.level_counts, b.level_counts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    EXPECT_EQ(a.records[r].max_load, b.records[r].max_load) << r;
    EXPECT_EQ(a.records[r].min_load, b.records[r].min_load) << r;
    EXPECT_EQ(a.records[r].psi, b.records[r].psi) << r;
    EXPECT_EQ(a.records[r].log_phi, b.records[r].log_phi) << r;
  }
  EXPECT_EQ(a.max_load.mean(), b.max_load.mean());
  EXPECT_EQ(a.gap.stddev(), b.gap.stddev());
  EXPECT_EQ(a.psi.mean(), b.psi.mean());
  EXPECT_EQ(a.log_phi.mean(), b.log_phi.mean());
}

}  // namespace
}  // namespace bbb::law
