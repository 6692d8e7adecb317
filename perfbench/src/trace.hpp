#pragma once
/// \file trace.hpp
/// The benchmark's own instrumentation: an in-memory span recorder and a
/// minimal JSON writer for the one result document bbb_perfbench prints.
///
/// Spans are recorded only around calls into the library's public
/// functions (never inside it): name, start, end, the span that caused
/// it, the recording thread, a work count, and numeric attributes. They
/// stay in memory until the run ends and are then written out with the
/// result; run.py derives every per-layer metric from them (self time is
/// a span's duration minus the part of it its children cover).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Tiny streaming JSON writer: objects, arrays, and scalar fields, with
/// the comma bookkeeping done here. Doubles print with 17 significant
/// digits so they round-trip exactly; non-finite values print as null.
class JsonWriter {
 public:
  JsonWriter& begin_object(std::string_view key = {});
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view key = {});
  JsonWriter& end_array();
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::string_view value);
  /// Without this overload a string literal would convert to bool.
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, bool value);
  /// An unkeyed number, for array elements.
  JsonWriter& value(double value);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void key(std::string_view key);
  void string(std::string_view text);

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
};

/// One recorded span. `parent` is 0 for a root span; ids start at 1.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::uint64_t count = 0;  ///< work units done inside the span (balls, events)
  std::vector<std::pair<std::string, double>> attrs;
};

/// Thread-safe span store. Spans are recorded per call, replicate or
/// measured loop — never per ball — so one mutex is proportionate.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a span; returns its id.
  std::uint32_t begin(std::string name, std::uint32_t parent);
  /// Close span `id`, recording its work count and attributes.
  void end(std::uint32_t id, std::uint64_t count,
           std::vector<std::pair<std::string, double>> attrs);

  /// All spans recorded so far, in opening order.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  /// Nanoseconds since the tracer was created.
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; spans_[id - 1]
};

/// RAII span: opens on construction, closes on destruction with whatever
/// count and attributes were set. A null tracer records nothing, so the
/// same code path serves traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  void set_count(std::uint64_t count) noexcept { count_ = count; }
  void attr(std::string name, double value) { attrs_.emplace_back(std::move(name), value); }

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
  std::uint64_t count_ = 0;
  std::vector<std::pair<std::string, double>> attrs_;
};

/// Seconds on the steady clock since `start`.
[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Write `spans` as a JSON array field named "spans".
void write_spans(JsonWriter& json, const std::vector<Span>& spans);

}  // namespace perfbench
