/// End-to-end pipeline tests: registry -> runner -> table, the exact path
/// every bench binary takes.

#include <gtest/gtest.h>

#include "bbb/core/protocols/registry.hpp"
#include "bbb/io/table.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb {
namespace {

TEST(Pipeline, EveryProtocolRunsThroughTheRunner) {
  for (const auto& spec :
       {"one-choice", "greedy[2]", "left[2]", "memory[1,1]", "threshold", "adaptive",
        "batched[4]", "self-balancing", "cuckoo[2,4]"}) {
    sim::ExperimentConfig cfg;
    cfg.protocol_spec = spec;
    cfg.m = 512;
    cfg.n = 128;
    cfg.replicates = 3;
    const sim::RunSummary s = run_experiment(cfg);
    EXPECT_EQ(s.probes.count(), 3u) << spec;
    EXPECT_GT(s.probes.mean(), 0.0) << spec;
  }
}

TEST(Pipeline, SweepToTableRendersAllFormats) {
  std::vector<sim::RunSummary> summaries;
  for (std::uint64_t m = 256; m <= 1024; m *= 2) {
    sim::ExperimentConfig cfg;
    cfg.protocol_spec = "adaptive";
    cfg.m = m;
    cfg.n = 64;
    cfg.replicates = 2;
    summaries.push_back(sim::run_experiment(cfg));
  }

  io::Table table({"m", "probes/m", "max", "psi"});
  for (const auto& s : summaries) {
    table.begin_row();
    table.add_int(static_cast<std::int64_t>(s.config.m));
    table.add_num(s.probes_per_ball(), 3);
    table.add_num(s.max_load.mean(), 2);
    table.add_num(s.psi.mean(), 1);
  }
  for (auto fmt : {io::Format::kAscii, io::Format::kMarkdown, io::Format::kCsv}) {
    const std::string out = table.render(fmt);
    EXPECT_FALSE(out.empty());
  }
  EXPECT_EQ(table.rows(), summaries.size());
}

TEST(Pipeline, SummariesReproducibleEndToEnd) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = "threshold";
  cfg.m = 4096;
  cfg.n = 256;
  cfg.replicates = 5;
  cfg.seed = 2024;
  const sim::RunSummary a = sim::run_experiment(cfg);
  const sim::RunSummary b = sim::run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.probes.mean(), b.probes.mean());
  EXPECT_DOUBLE_EQ(a.psi.mean(), b.psi.mean());
  EXPECT_DOUBLE_EQ(a.gap.max(), b.gap.max());
}

}  // namespace
}  // namespace bbb
