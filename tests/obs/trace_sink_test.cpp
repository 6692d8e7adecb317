#include "bbb/obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bbb/obs/metrics.hpp"

namespace bbb::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

TEST(JsonLine, EnvelopeAndFieldOrder) {
  JsonLine line("run_start", "sim");
  line.field("m", std::uint64_t{65536});
  EXPECT_EQ(line.finish(),
            R"({"schema":"bbb-obs-v1","event":"run_start","tool":"sim","m":65536})");
}

TEST(JsonLine, AllScalarTypes) {
  JsonLine line("replicate", "t");
  line.field("s", "text")
      .field("u", std::uint64_t{18446744073709551615ull})
      .field("i", std::int64_t{-7})
      .field("d", 0.5)
      .field("b", true)
      .field("f", false);
  const std::string out = line.finish();
  EXPECT_NE(out.find(R"("s":"text")"), std::string::npos);
  EXPECT_NE(out.find(R"("u":18446744073709551615)"), std::string::npos);
  EXPECT_NE(out.find(R"("i":-7)"), std::string::npos);
  EXPECT_NE(out.find(R"("d":0.5)"), std::string::npos);
  EXPECT_NE(out.find(R"("b":true)"), std::string::npos);
  EXPECT_NE(out.find(R"("f":false)"), std::string::npos);
}

TEST(JsonLine, EscapesStrings) {
  JsonLine line("run_start", "sim");
  line.field("path", "a\"b\\c\nd\te\rf");
  line.field("ctl", std::string_view("\x01\x1f", 2));
  const std::string out = line.finish();
  EXPECT_NE(out.find(R"(a\"b\\c\nd\te\rf)"), std::string::npos);
  EXPECT_NE(out.find(R"(\u0001)"), std::string::npos);
  EXPECT_NE(out.find(R"(\u001f)"), std::string::npos);
}

TEST(JsonLine, NonFiniteDoublesBecomeZero) {
  JsonLine line("replicate", "t");
  line.field("inf", std::numeric_limits<double>::infinity())
      .field("nan", std::numeric_limits<double>::quiet_NaN());
  const std::string out = line.finish();
  EXPECT_NE(out.find(R"("inf":0)"), std::string::npos);
  EXPECT_NE(out.find(R"("nan":0)"), std::string::npos);
  EXPECT_EQ(out.find("inf\":i"), std::string::npos);
}

TEST(JsonLine, NestedObjects) {
  JsonLine line("run_start", "sim");
  line.begin_object("config")
      .field("m", std::uint64_t{10})
      .begin_object("inner")
      .field("k", std::uint64_t{1})
      .end_object()
      .field("after", std::uint64_t{2})
      .end_object();
  EXPECT_EQ(line.finish(),
            R"({"schema":"bbb-obs-v1","event":"run_start","tool":"sim")"
            R"(,"config":{"m":10,"inner":{"k":1},"after":2}})");
}

TEST(JsonLine, FinishClosesOpenScopes) {
  JsonLine line("summary", "t");
  line.begin_object("a").begin_object("b").field("c", std::uint64_t{1});
  EXPECT_EQ(line.finish(),
            R"({"schema":"bbb-obs-v1","event":"summary","tool":"t")"
            R"(,"a":{"b":{"c":1}}})");
}

TEST(JsonLine, EndObjectWithoutOpenThrows) {
  JsonLine line("summary", "t");
  EXPECT_THROW(line.end_object(), std::logic_error);
}

TEST(AppendMetrics, WritesEveryKind) {
  Snapshot snap;
  snap.add_counter("c.count", 12);
  snap.set_gauge("g.gauge", 1.5);
  LatencyHistogram h;
  h.record(100);
  h.record(300);
  snap.add_histogram("h.hist", h);
  JsonLine line("summary", "t");
  append_metrics(line, snap);
  const std::string out = line.finish();
  EXPECT_NE(out.find(R"("metrics":{)"), std::string::npos);
  EXPECT_NE(out.find(R"("c.count":12)"), std::string::npos);
  EXPECT_NE(out.find(R"("g.gauge":1.5)"), std::string::npos);
  EXPECT_NE(out.find(R"("h.hist":{"count":2,"min":100,"max":300)"),
            std::string::npos);
  EXPECT_NE(out.find(R"("p999":)"), std::string::npos);
}

TEST(TraceSink, WritesSequencedLines) {
  const std::string path = temp_path("trace_sink_test.jsonl");
  {
    auto sink = TraceSink::open(path);
    EXPECT_EQ(sink->path(), path);
    for (int i = 0; i < 3; ++i) {
      JsonLine line("heartbeat", "test");
      line.field("i", static_cast<std::uint64_t>(i));
      sink->write(std::move(line));
    }
    EXPECT_EQ(sink->records_written(), 3u);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"seq\":" + std::to_string(i)),
              std::string::npos)
        << lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].front(), '{');
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].back(), '}');
  }
  std::remove(path.c_str());
}

TEST(TraceSink, OpenFailureThrows) {
  EXPECT_THROW((void)TraceSink::open("/nonexistent-dir/zzz/trace.jsonl"),
               std::runtime_error);
}

TEST(Heartbeat, NonPositiveIntervalNeverFires) {
  Heartbeat off(0.0);
  Heartbeat negative(-1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(off.due());
    EXPECT_FALSE(negative.due());
  }
}

TEST(Heartbeat, TinyIntervalFires) {
  Heartbeat hb(1e-9);
  bool fired = false;
  for (int i = 0; i < 100000 && !fired; ++i) fired = hb.due();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace bbb::obs
