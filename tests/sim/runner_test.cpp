#include "bbb/sim/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/par/thread_pool.hpp"
#include "../support/concrete_specs.hpp"

namespace bbb::sim {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.protocol_spec = "adaptive";
  cfg.m = 1000;
  cfg.n = 100;
  cfg.replicates = 8;
  cfg.seed = 42;
  return cfg;
}

TEST(Runner, SummaryCountsMatchReplicates) {
  const RunSummary s = run_experiment(small_config());
  EXPECT_EQ(s.probes.count(), 8u);
  EXPECT_EQ(s.records.size(), 8u);
  EXPECT_EQ(s.protocol_name, "adaptive");
  EXPECT_EQ(s.failures, 0u);
}

TEST(Runner, KeepRecordsOffDropsRawRowsButNotStats) {
  // Large sweeps switch keep_records off so thousands of summaries do not
  // retain every raw replicate row; the folded statistics are unaffected.
  ExperimentConfig cfg = small_config();
  const RunSummary with = run_experiment(cfg);
  cfg.keep_records = false;
  const RunSummary without = run_experiment(cfg);
  EXPECT_TRUE(without.records.empty());
  EXPECT_EQ(without.records.capacity(), 0u);  // memory actually released
  EXPECT_EQ(without.probes.count(), 8u);
  EXPECT_DOUBLE_EQ(without.probes.mean(), with.probes.mean());
  EXPECT_DOUBLE_EQ(without.psi.mean(), with.psi.mean());
  EXPECT_DOUBLE_EQ(without.max_load.mean(), with.max_load.mean());
}

TEST(Runner, StatsAgreeWithRawRecords) {
  const RunSummary s = run_experiment(small_config());
  double mean_probes = 0;
  for (const auto& r : s.records) mean_probes += r.probes;
  mean_probes /= static_cast<double>(s.records.size());
  EXPECT_NEAR(s.probes.mean(), mean_probes, 1e-9);
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  // The determinism contract: 1-thread and 4-thread pools produce
  // bit-identical summaries.
  const ExperimentConfig cfg = small_config();
  par::ThreadPool p1(1), p4(4);
  const RunSummary a = run_experiment(cfg, p1);
  const RunSummary b = run_experiment(cfg, p4);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].probes, b.records[i].probes);
    EXPECT_DOUBLE_EQ(a.records[i].psi, b.records[i].psi);
    EXPECT_DOUBLE_EQ(a.records[i].max_load, b.records[i].max_load);
  }
  EXPECT_DOUBLE_EQ(a.probes.mean(), b.probes.mean());
  EXPECT_DOUBLE_EQ(a.psi.variance(), b.psi.variance());
}

TEST(Runner, ReplicatesAreIndependent) {
  const RunSummary s = run_experiment(small_config());
  // All replicates identical would mean broken seeding.
  bool any_differ = false;
  for (std::size_t i = 1; i < s.records.size(); ++i) {
    if (s.records[i].probes != s.records[0].probes) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(Runner, RunReplicateMatchesSummaryRecord) {
  const ExperimentConfig cfg = small_config();
  const RunSummary s = run_experiment(cfg);
  const ReplicateRecord r3 = run_replicate(cfg, 3);
  EXPECT_DOUBLE_EQ(r3.probes, s.records[3].probes);
  EXPECT_DOUBLE_EQ(r3.psi, s.records[3].psi);
}

TEST(Runner, ProbesPerBall) {
  const RunSummary s = run_experiment(small_config());
  EXPECT_NEAR(s.probes_per_ball(), s.probes.mean() / 1000.0, 1e-12);
}

TEST(Runner, RecordsKeepFinalLevelCounts) {
  // levels[l] = bins at load exactly l, trimmed to max_load + 1: one entry
  // per bin and one ball per unit of load, on both replicate paths.
  struct Case {
    const char* spec;
    std::optional<core::StateLayout> layout;
  };
  for (const Case& c : {Case{"greedy[2]", core::StateLayout::kWide},
                        Case{"greedy[2]", core::StateLayout::kCompact},
                        Case{"shards[2]:greedy[2]", std::nullopt}}) {
    ExperimentConfig cfg = small_config();
    cfg.protocol_spec = c.spec;
    cfg.layout = c.layout;
    const RunSummary s = run_experiment(cfg);
    for (const ReplicateRecord& rec : s.records) {
      ASSERT_EQ(rec.levels.size(), static_cast<std::size_t>(rec.max_load) + 1) << c.spec;
      std::uint64_t bins = 0;
      std::uint64_t balls = 0;
      for (std::size_t l = 0; l < rec.levels.size(); ++l) {
        bins += rec.levels[l];
        balls += l * rec.levels[l];
      }
      EXPECT_EQ(bins, cfg.n) << c.spec;
      EXPECT_EQ(balls, cfg.m) << c.spec;
    }
  }
}

TEST(Runner, FailuresAreCounted) {
  // Cuckoo over capacity: every replicate must report failure.
  ExperimentConfig cfg;
  cfg.protocol_spec = "cuckoo[2,2]";
  cfg.m = 600;  // > 2 * 128 slots
  cfg.n = 128;
  cfg.replicates = 4;
  const RunSummary s = run_experiment(cfg);
  EXPECT_EQ(s.failures, 4u);
}

TEST(Runner, Validation) {
  ExperimentConfig cfg = small_config();
  cfg.replicates = 0;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.protocol_spec = "bogus";
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(Runner, LayoutIsAPlainParameter) {
  // One replicate path serves both layouts, so every registry family
  // yields the same record at wide and at compact, field for field —
  // batched[k]'s LW rounds included.
  const auto& concrete = test::concrete_protocol_specs();
  for (const std::string& tmpl : core::protocol_specs()) {
    ASSERT_EQ(concrete.count(tmpl), 1u) << "registry family '" << tmpl << "' has no row";
    ExperimentConfig cfg;
    cfg.protocol_spec = concrete.at(tmpl);
    cfg.m = 4'096;
    cfg.n = 512;
    cfg.seed = 42;
    cfg.layout = core::StateLayout::kWide;
    const ReplicateRecord wide = run_replicate(cfg, 1);
    cfg.layout = core::StateLayout::kCompact;
    const ReplicateRecord compact = run_replicate(cfg, 1);
    const std::string& spec = cfg.protocol_spec;
    EXPECT_EQ(wide.probes, compact.probes) << spec;
    EXPECT_EQ(wide.max_load, compact.max_load) << spec;
    EXPECT_EQ(wide.min_load, compact.min_load) << spec;
    EXPECT_EQ(wide.gap, compact.gap) << spec;
    EXPECT_EQ(wide.psi, compact.psi) << spec;
    EXPECT_EQ(wide.log_phi, compact.log_phi) << spec;
    EXPECT_EQ(wide.reallocations, compact.reallocations) << spec;
    EXPECT_EQ(wide.completed, compact.completed) << spec;
    EXPECT_EQ(wide.counters, compact.counters) << spec;
    EXPECT_EQ(wide.wall_ns, compact.wall_ns) << spec;
    EXPECT_EQ(wide.rounds, compact.rounds) << spec;
    EXPECT_EQ(wide.levels, compact.levels) << spec;
  }
}

ExperimentConfig derived_config(const std::string& spec, std::uint64_t m_per_bin) {
  ExperimentConfig cfg;
  cfg.protocol_spec = spec;
  cfg.n = 256;
  cfg.m = m_per_bin * cfg.n;
  cfg.replicates = 2;
  cfg.seed = 42;
  return cfg;
}

/// The layout a run used, as its summary names it.
core::StateLayout layout_of(const ExperimentConfig& cfg) {
  const RunSummary s = run_experiment(cfg);
  EXPECT_TRUE(s.config.layout.has_value()) << cfg.protocol_spec;
  return s.config.layout.value_or(core::StateLayout::kWide);
}

TEST(Runner, DefaultLayoutIsDerived) {
  using core::StateLayout;
  // The paper's protocols and the two-choice baseline at m = 8n run on
  // the ~1 byte/bin compact state.
  for (const char* spec : {"greedy[2]", "adaptive", "threshold", "one-choice"}) {
    const ExperimentConfig cfg = derived_config(spec, 8);
    EXPECT_FALSE(cfg.layout.has_value()) << spec;
    EXPECT_EQ(layout_of(cfg), StateLayout::kCompact) << spec;
  }
  // batched[k]'s LW rounds run in either layout, so it derives like the rest.
  EXPECT_EQ(layout_of(derived_config("batched[2]", 1)), StateLayout::kCompact);
  // The side-table cliff: ceil(m/n) = cliff - 1 stays compact, the cliff
  // and beyond go wide.
  const std::uint64_t cliff = core::kCompactLoadCliff;
  EXPECT_EQ(cliff, 191u);
  EXPECT_EQ(layout_of(derived_config("greedy[2]", cliff - 1)), StateLayout::kCompact);
  EXPECT_EQ(layout_of(derived_config("greedy[2]", cliff)), StateLayout::kWide);
  EXPECT_EQ(layout_of(derived_config("adaptive", 2 * cliff)), StateLayout::kWide);
  ExperimentConfig ragged = derived_config("greedy[2]", cliff - 1);
  ragged.m += 1;  // ceil(m/n) = cliff
  EXPECT_EQ(layout_of(ragged), StateLayout::kWide);
  // A pinned layout wins.
  ExperimentConfig pinned = derived_config("greedy[2]", 8);
  pinned.layout = StateLayout::kWide;
  EXPECT_EQ(layout_of(pinned), StateLayout::kWide);
}

TEST(Runner, DerivedRunEqualsPinnedRun) {
  // Every registry family, at a compact shape and at a shape past the
  // cliff: the derived run is the run with that layout pinned, record for
  // record, and the summary names the layout that ran.
  const auto& concrete = test::concrete_protocol_specs();
  for (const std::string& tmpl : core::protocol_specs()) {
    ASSERT_EQ(concrete.count(tmpl), 1u) << "registry family '" << tmpl << "' has no row";
    for (const std::uint64_t per_bin : {std::uint64_t{8}, core::kCompactLoadCliff}) {
      ExperimentConfig cfg = derived_config(concrete.at(tmpl), per_bin);
      if (tmpl == "batched[capacity]") cfg.m = cfg.n;  // batched[64] holds <= 64n
      const RunSummary derived = run_experiment(cfg);
      ASSERT_TRUE(derived.config.layout.has_value()) << cfg.protocol_spec;
      const core::StateLayout layout = *derived.config.layout;
      const std::string name(core::to_string(layout));
      EXPECT_NE(derived.config.describe().find("layout=" + name), std::string::npos);
      cfg.layout = layout;
      const RunSummary pinned = run_experiment(cfg);
      ASSERT_EQ(derived.records.size(), pinned.records.size());
      for (std::size_t r = 0; r < derived.records.size(); ++r) {
        const ReplicateRecord& a = derived.records[r];
        const ReplicateRecord& b = pinned.records[r];
        const std::string& spec = cfg.protocol_spec;
        EXPECT_EQ(a.probes, b.probes) << spec;
        EXPECT_EQ(a.max_load, b.max_load) << spec;
        EXPECT_EQ(a.min_load, b.min_load) << spec;
        EXPECT_EQ(a.psi, b.psi) << spec;
        EXPECT_EQ(a.log_phi, b.log_phi) << spec;
        EXPECT_EQ(a.reallocations, b.reallocations) << spec;
        EXPECT_EQ(a.rounds, b.rounds) << spec;
        EXPECT_EQ(a.completed, b.completed) << spec;
      }
      // run_replicate resolves an unset layout the same way.
      cfg.layout.reset();
      EXPECT_EQ(run_replicate(cfg, 1).psi, pinned.records[1].psi) << cfg.protocol_spec;
    }
  }
}

TEST(Runner, RunStartTraceNamesTheResolvedLayout) {
  const std::string path = ::testing::TempDir() + "runner_layout.jsonl";
  ExperimentConfig cfg = derived_config("greedy[2]", 8);
  cfg.obs.level = obs::ObsLevel::kCounters;
  cfg.obs.sink = obs::TraceSink::open(path);
  (void)run_experiment(cfg);
  cfg.obs.sink.reset();  // flush and close
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096] = {};
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  std::fclose(f);
  const std::string run_start(line);
  EXPECT_NE(run_start.find("\"run_start\""), std::string::npos) << run_start;
  EXPECT_NE(run_start.find("\"layout\":\"compact\""), std::string::npos) << run_start;
  EXPECT_NE(run_start.find("layout=compact"), std::string::npos) << run_start;
  std::remove(path.c_str());
}

TEST(Runner, HeartbeatsLeaveRecordsUnchanged) {
  // Heartbeats observe run_batch between chunks of kBatchProgressStride
  // balls; the chunked placements equal the one-call batch in either
  // layout, so the records match the uninstrumented run exactly.
  const std::string path = ::testing::TempDir() + "runner_heartbeat.jsonl";
  for (const core::StateLayout layout :
       {core::StateLayout::kWide, core::StateLayout::kCompact}) {
    ExperimentConfig cfg;
    cfg.protocol_spec = "greedy[2]";
    cfg.m = 3 * core::kBatchProgressStride + 5;
    cfg.n = 4'096;
    cfg.replicates = 2;
    cfg.layout = layout;
    const RunSummary off = run_experiment(cfg);
    cfg.obs.level = obs::ObsLevel::kFull;
    cfg.obs.sink = obs::TraceSink::open(path);
    cfg.obs.heartbeat_seconds = 1e-9;  // due at every chunk boundary
    const RunSummary beating = run_experiment(cfg);
    // run_start + 2 replicate lines + summary, plus the heartbeats.
    EXPECT_GT(cfg.obs.sink->records_written(), 4u) << core::to_string(layout);
    ASSERT_EQ(off.records.size(), beating.records.size());
    for (std::size_t r = 0; r < off.records.size(); ++r) {
      EXPECT_EQ(off.records[r].probes, beating.records[r].probes);
      EXPECT_EQ(off.records[r].max_load, beating.records[r].max_load);
      EXPECT_EQ(off.records[r].psi, beating.records[r].psi);
      EXPECT_EQ(off.records[r].log_phi, beating.records[r].log_phi);
    }
  }
  std::remove(path.c_str());
}

TEST(Runner, DescribeMentionsKeyFields) {
  const std::string desc = small_config().describe();
  EXPECT_NE(desc.find("adaptive"), std::string::npos);
  EXPECT_NE(desc.find("m=1000"), std::string::npos);
  EXPECT_NE(desc.find("n=100"), std::string::npos);
}

}  // namespace
}  // namespace bbb::sim
