#include "bbb/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bbb::obs {
namespace {

LatencyHistogram histogram_of(std::uint64_t value) {
  LatencyHistogram h;
  h.record(value);
  return h;
}

TEST(Snapshot, RepeatedFoldsShareOneEntry) {
  Snapshot snap;
  snap.add_counter("core.probe.count", 10);
  snap.add_counter("core.probe.count", 32);
  snap.add_histogram("h", histogram_of(100));
  snap.add_histogram("h", histogram_of(200));
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.counter_value("core.probe.count"), 42u);
  EXPECT_EQ(snap.find("h")->histogram.count(), 2u);
}

TEST(Snapshot, IsNameSortedAcrossKinds) {
  Snapshot snap;
  snap.add_counter("z.counter", 1);
  snap.set_gauge("a.gauge", 0.5);
  snap.add_histogram("m.hist", histogram_of(100));
  snap.add_counter("b.counter", 2);
  ASSERT_EQ(snap.entries.size(), 4u);
  std::vector<std::string> names;
  for (const auto& e : snap.entries) names.push_back(e.name);
  const std::vector<std::string> want{"a.gauge", "b.counter", "m.hist", "z.counter"};
  EXPECT_EQ(names, want);
}

TEST(Snapshot, CopiesAreIndependentValues) {
  Snapshot snap;
  snap.add_counter("c", 5);
  const Snapshot copy = snap;
  snap.add_counter("c", 100);  // must not retro-change the copy
  EXPECT_EQ(copy.counter_value("c"), 5u);
  EXPECT_EQ(snap.counter_value("c"), 105u);
}

TEST(Snapshot, EarlyFoldsSurviveLaterInsertions) {
  Snapshot snap;
  snap.add_counter("aa", 4);
  // Insert around it so the entry vector reallocates and shifts.
  for (int i = 0; i < 256; ++i) snap.add_counter("fill." + std::to_string(i), 1);
  snap.add_counter("a", 1);
  snap.add_counter("aa", 5);
  EXPECT_EQ(snap.counter_value("aa"), 9u);
  EXPECT_EQ(snap.entries.size(), 258u);
}

TEST(Snapshot, NameCannotChangeKind) {
  Snapshot snap;
  snap.add_counter("c", 1);
  snap.set_gauge("g", 1.0);
  snap.add_histogram("h", histogram_of(1));
  EXPECT_THROW(snap.set_gauge("c", 2.0), std::logic_error);
  EXPECT_THROW(snap.add_histogram("c", histogram_of(2)), std::logic_error);
  EXPECT_THROW(snap.add_counter("g", 2), std::logic_error);
  EXPECT_THROW(snap.add_histogram("g", histogram_of(2)), std::logic_error);
  EXPECT_THROW(snap.add_counter("h", 2), std::logic_error);
  EXPECT_THROW(snap.set_gauge("h", 2.0), std::logic_error);

  Snapshot other;
  other.set_gauge("c", 3.0);
  EXPECT_THROW(snap.merge(other), std::logic_error);
  // A rejected fold leaves the entry as it was.
  EXPECT_EQ(snap.counter_value("c"), 1u);
  EXPECT_EQ(snap.entries.size(), 3u);
}

TEST(Snapshot, FindAndCounterValue) {
  Snapshot snap;
  snap.add_counter("present", 7);
  snap.set_gauge("g", 1.25);
  ASSERT_NE(snap.find("present"), nullptr);
  EXPECT_EQ(snap.find("present")->kind, SnapshotEntry::Kind::kCounter);
  EXPECT_EQ(snap.find("absent"), nullptr);
  EXPECT_EQ(snap.counter_value("present"), 7u);
  EXPECT_EQ(snap.counter_value("absent"), 0u);
  EXPECT_EQ(snap.counter_value("g"), 0u);
  ASSERT_NE(snap.find("g"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("g")->gauge, 1.25);
}

TEST(Snapshot, MergeAddsCountersTakesGaugesMergesHistograms) {
  Snapshot merged;
  merged.add_counter("shared.counter", 10);
  merged.add_counter("only.first", 1);
  merged.set_gauge("shared.gauge", 1.0);
  merged.add_histogram("shared.hist", histogram_of(100));

  Snapshot second;
  second.add_counter("shared.counter", 32);
  second.add_counter("only.second", 2);
  second.set_gauge("shared.gauge", 2.0);
  second.add_histogram("shared.hist", histogram_of(200));

  merged.merge(second);

  EXPECT_EQ(merged.counter_value("shared.counter"), 42u);
  EXPECT_EQ(merged.counter_value("only.first"), 1u);
  EXPECT_EQ(merged.counter_value("only.second"), 2u);
  // Gauges: the other snapshot is the later sample, last write wins.
  EXPECT_DOUBLE_EQ(merged.find("shared.gauge")->gauge, 2.0);
  const SnapshotEntry* hist = merged.find("shared.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count(), 2u);
  EXPECT_EQ(hist->histogram.min(), 100u);
  EXPECT_EQ(hist->histogram.max(), 200u);

  // The union stays name-sorted (Snapshot::find binary-searches).
  for (std::size_t i = 1; i < merged.entries.size(); ++i) {
    EXPECT_LT(merged.entries[i - 1].name, merged.entries[i].name);
  }
}

TEST(Snapshot, MergeWithEmptyIsIdentity) {
  Snapshot snap;
  snap.add_counter("c", 3);
  snap.merge(Snapshot{});
  EXPECT_EQ(snap.counter_value("c"), 3u);

  Snapshot empty;
  empty.merge(snap);
  EXPECT_EQ(empty.counter_value("c"), 3u);
}

}  // namespace
}  // namespace bbb::obs
