#include "trace.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/// Small dense id for the calling thread (0 = first thread to record).
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

// -- JsonWriter ---------------------------------------------------------------

void JsonWriter::string(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::key(std::string_view key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (!key.empty()) {
    string(key);
    out_ += ':';
  }
}

JsonWriter& JsonWriter::begin_object(std::string_view key) {
  this->key(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view key) {
  this->key(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  this->key(key);
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  this->key(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  this->key(key);
  string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  this->key(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double value) { return field({}, value); }

// -- Tracer -------------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t Tracer::begin(std::string name, std::uint32_t parent) {
  Span span;
  span.parent = parent;
  span.name = std::move(name);
  span.thread = thread_index();
  std::scoped_lock lock(mutex_);
  span.id = static_cast<std::uint32_t>(spans_.size()) + 1;
  // Read the clock last, so the bookkeeping above is outside the span.
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id, std::uint64_t count,
                 std::vector<std::pair<std::string, double>> attrs) {
  const std::int64_t end = now_ns();
  std::scoped_lock lock(mutex_);
  Span& span = spans_[id - 1];
  span.end_ns = end;
  span.count = count;
  span.attrs = std::move(attrs);
}

std::vector<Span> Tracer::spans() const {
  std::scoped_lock lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::uint32_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), parent);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->end(id_, count_, std::move(attrs_));
}

void write_spans(JsonWriter& json, const std::vector<Span>& spans) {
  json.begin_array("spans");
  for (const Span& s : spans) {
    json.begin_object()
        .field("id", static_cast<std::uint64_t>(s.id))
        .field("parent", static_cast<std::uint64_t>(s.parent))
        .field("name", s.name)
        .field("start_ns", static_cast<std::uint64_t>(s.start_ns))
        .field("end_ns", static_cast<std::uint64_t>(s.end_ns))
        .field("thread", static_cast<std::uint64_t>(s.thread))
        .field("count", s.count);
    json.begin_object("attrs");
    for (const auto& [name, value] : s.attrs) json.field(name, value);
    json.end_object().end_object();
  }
  json.end_array();
}

}  // namespace perfbench
