#include "bbb/obs/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbb/io/argparse.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/obs/trace_sink.hpp"

namespace bbb::obs {
namespace {

/// Parse a fake command line through the shared flag surface.
ObsConfig parse(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "test_tool");
  std::vector<const char*> argv;
  argv.reserve(argv_strings.size());
  for (const std::string& s : argv_strings) argv.push_back(s.c_str());
  io::ArgParser args("test_tool", "obs flag test harness");
  add_obs_flags(args);
  EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data()));
  return parse_obs_flags(args);
}

TEST(ObsCli, DefaultsToOff) {
  const ObsConfig cfg = parse({});
  EXPECT_EQ(cfg.level, ObsLevel::kOff);
  EXPECT_FALSE(cfg.counters_on());
  EXPECT_FALSE(cfg.full_on());
  EXPECT_EQ(cfg.sink, nullptr);
  EXPECT_TRUE(cfg.describe().empty());
}

TEST(ObsCli, ParsesEveryLevel) {
  EXPECT_EQ(parse({"--obs=off"}).level, ObsLevel::kOff);
  const ObsConfig counters = parse({"--obs=counters"});
  EXPECT_EQ(counters.level, ObsLevel::kCounters);
  EXPECT_TRUE(counters.counters_on());
  EXPECT_FALSE(counters.full_on());
  const ObsConfig full = parse({"--obs=full"});
  EXPECT_EQ(full.level, ObsLevel::kFull);
  EXPECT_TRUE(full.counters_on());
  EXPECT_TRUE(full.full_on());
}

TEST(ObsCli, RejectsUnknownLevel) {
  EXPECT_THROW((void)parse({"--obs=verbose"}), std::invalid_argument);
}

TEST(ObsCli, RejectsSinkWhenOff) {
  // --obs-out with --obs=off would collect nothing silently: refused.
  EXPECT_THROW((void)parse({"--obs-out=/tmp/x.jsonl"}), std::invalid_argument);
}

TEST(ObsCli, RejectsHeartbeatBelowFull) {
  EXPECT_THROW((void)parse({"--obs=counters", "--heartbeat=5"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--heartbeat=5"}), std::invalid_argument);
}

TEST(ObsCli, RejectsNegativeHeartbeat) {
  EXPECT_THROW((void)parse({"--obs=full", "--heartbeat=-1"}),
               std::invalid_argument);
}

TEST(ObsCli, OpensSinkAndDescribes) {
  const std::string path = ::testing::TempDir() + "obs_cli_test.jsonl";
  const ObsConfig cfg = parse({"--obs=full", "--obs-out=" + path,
                               "--heartbeat=2.5"});
  ASSERT_NE(cfg.sink, nullptr);
  EXPECT_EQ(cfg.sink->path(), path);
  EXPECT_DOUBLE_EQ(cfg.heartbeat_seconds, 2.5);
  const std::string desc = cfg.describe();
  EXPECT_NE(desc.find("obs=full"), std::string::npos);
  EXPECT_NE(desc.find(path), std::string::npos);
  EXPECT_NE(desc.find("heartbeat"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsCli, LevelRoundTripsThroughStrings) {
  for (const ObsLevel level :
       {ObsLevel::kOff, ObsLevel::kCounters, ObsLevel::kFull}) {
    EXPECT_EQ(parse_obs_level(to_string(level)), level);
  }
  EXPECT_THROW((void)parse_obs_level("banana"), std::invalid_argument);
}

TEST(ObsCli, PrintSummarySkipsEmptySnapshot) {
  // Contractual no-op: a tool run with --obs=off must not emit even a
  // header line on stderr.
  const std::string path = ::testing::TempDir() + "obs_cli_summary.txt";
  std::FILE* f = std::fopen(path.c_str(), "w+");
  ASSERT_NE(f, nullptr);
  print_summary(Snapshot{}, f);
  EXPECT_EQ(std::ftell(f), 0);

  Snapshot snap;
  snap.add_counter("core.probe.count", 9);
  print_summary(snap, f);
  EXPECT_GT(std::ftell(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbb::obs
