/// ThreadSanitizer stress suite for the obs layer (`ctest -L tsan`).
///
/// Run under `BBB_TSAN=ON` these tests exercise the two places where obs
/// state meets more than one thread: per-thread Snapshots built on
/// workers and merged after the join barrier (what every driver's
/// replicate fold relies on), and TraceSink writers interleaving with a
/// records_written() poller.
///
/// The poller test is a regression pin: `TraceSink::seq_` used to
/// be a plain uint64 incremented under the sink mutex but read *without*
/// it by records_written() — a genuine C++ data race (TSan: "data race on
/// seq_"), fixed by making seq_ atomic. It is the one atomic the obs
/// layer keeps: a Snapshot is a plain value built by one thread, and
/// histograms follow the documented one-writer-then-merge fold
/// discipline.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bbb/obs/latency_histogram.hpp"
#include "bbb/obs/metrics.hpp"
#include "bbb/obs/trace_sink.hpp"

namespace bbb::obs {
namespace {

constexpr int kWriters = 8;

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

// The fold discipline end to end: each thread owns its Snapshot (and its
// histogram — they are documented single-writer), and the main thread
// merges all snapshots after join. The merged result must be exact and
// independent of merge order pairing with thread scheduling.
TEST(ObsTsanStress, PerThreadSnapshotsMergeExactlyAfterJoin) {
  constexpr std::uint64_t kRecordsPerWriter = 5000;
  std::vector<Snapshot> snapshots(kWriters);

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&snapshots, w] {
      LatencyHistogram lat;
      for (std::uint64_t i = 0; i < kRecordsPerWriter; ++i) {
        snapshots[w].add_counter("merge.balls", 1);
        lat.record(i + 1);
      }
      snapshots[w].add_histogram("merge.latency_ns", lat);
    });
  }
  for (auto& t : writers) t.join();

  Snapshot merged = snapshots[0];
  for (int w = 1; w < kWriters; ++w) merged.merge(snapshots[w]);

  EXPECT_EQ(merged.counter_value("merge.balls"), kWriters * kRecordsPerWriter);
  const SnapshotEntry* lat = merged.find("merge.latency_ns");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->kind, SnapshotEntry::Kind::kHistogram);
  EXPECT_EQ(lat->histogram.count(), kWriters * kRecordsPerWriter);
  EXPECT_EQ(lat->histogram.min(), 1u);
  EXPECT_EQ(lat->histogram.max(), kRecordsPerWriter);
}

// Regression for the PR 9 TSan finding: concurrent write() calls while
// the main thread polls records_written() until every line has landed.
// With the pre-fix plain uint64 seq_ this is a reported race; with the
// atomic it must be silent, and the file must hold exactly one line per
// write with strictly increasing seq values.
TEST(ObsTsanStress, RecordsWrittenRacesWithWriters) {
  constexpr std::uint64_t kLinesPerWriter = 400;
  const std::string path = temp_path("obs_stress_sink.jsonl");
  {
    auto sink = TraceSink::open(path);

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&sink, w] {
        for (std::uint64_t i = 0; i < kLinesPerWriter; ++i) {
          JsonLine line("heartbeat", "stress");
          line.field("writer", static_cast<std::uint64_t>(w)).field("i", i);
          sink->write(std::move(line));
        }
      });
    }
    // Poll concurrently with the writers — the read under test.
    while (sink->records_written() < kWriters * kLinesPerWriter) {
      std::this_thread::yield();
    }
    for (auto& t : writers) t.join();
    EXPECT_EQ(sink->records_written(), kWriters * kLinesPerWriter);
  }

  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"schema\":\"bbb-obs-v1\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, kWriters * kLinesPerWriter);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbb::obs
