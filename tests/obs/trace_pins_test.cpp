/// Line-for-line pins of the JSON-lines trace each tier writes.
///
/// Every driver (sim, dyn, law) writes `run_start`, one `replicate` line
/// per replicate and a closing `summary`. These pins fix the event order,
/// the field order and every deterministic value in those lines, so a
/// change to how the drivers fan out, fold or write shows up as a diff
/// here. Values that are not deterministic are masked before comparing:
/// every field whose key contains `wall_ns` or `latency_ns` (a number or
/// a histogram object) becomes "#", `seq` is dropped, the sink's own path
/// becomes "<sink>", and heartbeat lines are skipped.
///
/// Like every golden pin the expected lines were captured from this
/// implementation at a fixed seed.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "bbb/dyn/engine.hpp"
#include "bbb/law/engine.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/sim/runner.hpp"

namespace bbb {
namespace {

/// Open a fresh sink at a per-test temp path and attach it to `obs`.
std::string attach_sink(obs::ObsConfig& obs, const std::string& stem) {
  const std::string path = ::testing::TempDir() + stem + ".jsonl";
  obs.level = obs::ObsLevel::kFull;
  obs.sink = obs::TraceSink::open(path);
  return path;
}

/// Read the trace at `path`, mask what a rerun may change, and delete it.
std::vector<std::string> masked_lines(const std::string& path) {
  static const std::regex timing(
      R"re("([^"]*(wall_ns|latency_ns)[^"]*)":(\{[^}]*\}|[-+.0-9eE]+))re");
  static const std::regex seq(R"re(,"seq":[0-9]+)re");
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find(R"("event":"heartbeat")") != std::string::npos) continue;
      for (std::size_t at = line.find(path); at != std::string::npos;
           at = line.find(path)) {
        line.replace(at, path.size(), "<sink>");
      }
      line = std::regex_replace(line, timing, R"("$1":"#")");
      lines.push_back(std::regex_replace(line, seq, ""));
    }
  }
  std::remove(path.c_str());
  return lines;
}

void expect_lines(const std::vector<std::string>& got,
                  const std::vector<std::string>& want) {
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << i;
  }
  if (got != want) {
    std::string all;
    for (const std::string& line : got) all += "R\"(" + line + ")\",\n";
    ADD_FAILURE() << "masked trace:\n" << all;
  }
}

std::vector<std::string> sim_trace(const std::string& spec, std::uint32_t reps,
                                   const std::string& stem) {
  sim::ExperimentConfig cfg;
  cfg.protocol_spec = spec;
  cfg.m = 8'192;
  cfg.n = 1'024;
  cfg.replicates = reps;
  cfg.seed = 42;
  const std::string path = attach_sink(cfg.obs, stem);
  par::ThreadPool pool(2);
  (void)sim::run_experiment(cfg, pool);
  cfg.obs.sink.reset();
  return masked_lines(path);
}

TEST(TracePins, SimGreedy2) {
  expect_lines(sim_trace("greedy[2]", 3, "trace_pins_sim_greedy2"),
               {
      R"({"schema":"bbb-obs-v1","event":"run_start","tool":"sim","config":{"describe":"greedy[2] m=8192 n=1024 reps=3 seed=42 layout=compact obs=full obs-out=<sink>","protocol":"greedy[2]","m":8192,"n":1024,"replicates":3,"seed":42,"layout":"compact"}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"sim","replicate":0,"metrics":{"probes":16384,"max_load":10,"gap":6,"wall_ns":"#","completed":true}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"sim","replicate":1,"metrics":{"probes":16384,"max_load":10,"gap":7,"wall_ns":"#","completed":true}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"sim","replicate":2,"metrics":{"probes":16384,"max_load":11,"gap":6,"wall_ns":"#","completed":true}})",
      R"({"schema":"bbb-obs-v1","event":"summary","tool":"sim","metrics":{"core.ball.placed":24576,"core.batch.batches":3,"core.batch.exact_balls":31,"core.batch.fallback_balls":0,"core.batch.fast_balls":24576,"core.batch.waves":39,"core.lookahead.refills":39,"core.probe.count":49152,"sim.fold.wall_ns":"#","sim.replicate.wall_ns":"#"}})"});
}

TEST(TracePins, SimShards2Greedy2) {
  expect_lines(sim_trace("shards[2]:greedy[2]", 2, "trace_pins_sim_shards2"),
               {
      R"({"schema":"bbb-obs-v1","event":"run_start","tool":"sim","config":{"describe":"shards[2]:greedy[2] m=8192 n=1024 reps=2 seed=42 layout=compact obs=full obs-out=<sink>","protocol":"shards[2]:greedy[2]","m":8192,"n":1024,"replicates":2,"seed":42,"layout":"compact"}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"sim","replicate":0,"metrics":{"probes":16384,"max_load":10,"gap":6,"wall_ns":"#","completed":true}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"sim","replicate":1,"metrics":{"probes":16384,"max_load":10,"gap":7,"wall_ns":"#","completed":true}})",
      R"({"schema":"bbb-obs-v1","event":"summary","tool":"sim","metrics":{"core.ball.placed":16384,"core.probe.count":32768,"core.rule.rounds":2,"shard.ball.deferred":15871,"shard.message.count":16691,"shard.probe.cross_shard":16458,"shard.sync_rounds":4,"sim.fold.wall_ns":"#","sim.replicate.wall_ns":"#"}})"});
}

TEST(TracePins, DynAdaptiveNetSupermarketFull) {
  dyn::DynConfig cfg;
  cfg.allocator_spec = "adaptive-net";
  cfg.workload_spec = "supermarket[90]";
  cfg.n = 256;
  cfg.warmup = 1'024;
  cfg.events = 2'048;
  cfg.stride = 512;
  cfg.replicates = 2;
  cfg.seed = 42;
  const std::string path = attach_sink(cfg.obs, "trace_pins_dyn");
  par::ThreadPool pool(2);
  (void)dyn::run_dynamic(cfg, pool);
  cfg.obs.sink.reset();
  expect_lines(masked_lines(path),
               {
      R"({"schema":"bbb-obs-v1","event":"run_start","tool":"dyn","config":{"describe":"adaptive-net x supermarket[90] n=256 warmup=1024 events=2048 reps=2 seed=42 layout=wide obs=full obs-out=<sink>","allocator":"adaptive-net","workload":"supermarket[90]","n":256,"warmup":1024,"events":2048,"replicates":2,"seed":42,"layout":"wide"}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"dyn","replicate":0,"metrics":{"probes":2211,"mean_gap":3.0000000000000031,"peak_max":3,"dropped_departures":0,"wall_ns":"#"}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"dyn","replicate":1,"metrics":{"probes":2263,"mean_gap":2.9999999999999933,"peak_max":3,"dropped_departures":0,"wall_ns":"#"}})",
      R"({"schema":"bbb-obs-v1","event":"summary","tool":"dyn","metrics":{"core.ball.placed":3522,"core.probe.count":4474,"dyn.event.dropped_departures":0,"dyn.event.place_latency_ns":"#","dyn.event.remove_latency_ns":"#","dyn.gauge.gap":2.9999999999999982,"dyn.gauge.psi":304.44472439978256,"dyn.replicate.wall_ns":"#"}})"});
}

TEST(TracePins, LawOneChoice) {
  law::LawConfig cfg;
  cfg.protocol_spec = "one-choice";
  cfg.m = 4'096;
  cfg.n = 4'096;
  cfg.replicates = 3;
  cfg.seed = 42;
  const std::string path = attach_sink(cfg.obs, "trace_pins_law");
  par::ThreadPool pool(2);
  (void)law::run_law_experiment(cfg, pool);
  cfg.obs.sink.reset();
  expect_lines(masked_lines(path),
               {
      R"({"schema":"bbb-obs-v1","event":"run_start","tool":"law","config":{"describe":"one-choice m=4096 n=4096 reps=3 seed=42 tier=law obs=full obs-out=<sink>","protocol":"one-choice","m":4096,"n":4096,"replicates":3,"seed":42}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"law","replicate":0,"metrics":{"max_load":7,"gap":7,"wall_ns":"#"}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"law","replicate":1,"metrics":{"max_load":7,"gap":7,"wall_ns":"#"}})",
      R"({"schema":"bbb-obs-v1","event":"replicate","tool":"law","replicate":2,"metrics":{"max_load":6,"gap":6,"wall_ns":"#"}})",
      R"({"schema":"bbb-obs-v1","event":"summary","tool":"law","metrics":{"law.replicate.wall_ns":"#"}})"});
}

}  // namespace
}  // namespace bbb
