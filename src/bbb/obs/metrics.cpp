#include "bbb/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace bbb::obs {

namespace {

/// First entry whose name is not below `name` (entries are name-sorted).
template <class Entries>
auto lower_bound_by_name(Entries& entries, std::string_view name) {
  return std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const SnapshotEntry& e, std::string_view key) { return e.name < key; });
}

}  // namespace

const SnapshotEntry* Snapshot::find(std::string_view name) const noexcept {
  const auto it = lower_bound_by_name(entries, name);
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const noexcept {
  const SnapshotEntry* entry = find(name);
  if (entry == nullptr || entry->kind != SnapshotEntry::Kind::kCounter) return 0;
  return entry->counter;
}

SnapshotEntry& Snapshot::slot(std::string_view name, SnapshotEntry::Kind kind) {
  auto it = lower_bound_by_name(entries, name);
  if (it == entries.end() || it->name != name) {
    SnapshotEntry entry;
    entry.name = std::string(name);
    entry.kind = kind;
    return *entries.insert(it, std::move(entry));
  }
  if (it->kind != kind) {
    throw std::logic_error("Snapshot: metric '" + std::string(name) +
                           "' already exists with another kind");
  }
  return *it;
}

void Snapshot::add_counter(std::string_view name, std::uint64_t n) {
  slot(name, SnapshotEntry::Kind::kCounter).counter += n;
}

void Snapshot::set_gauge(std::string_view name, double v) {
  slot(name, SnapshotEntry::Kind::kGauge).gauge = v;
}

void Snapshot::add_histogram(std::string_view name, const LatencyHistogram& h) {
  slot(name, SnapshotEntry::Kind::kHistogram).histogram.merge(h);
}

void Snapshot::merge(const Snapshot& other) {
  for (const SnapshotEntry& e : other.entries) {
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
        add_counter(e.name, e.counter);
        break;
      case SnapshotEntry::Kind::kGauge:
        set_gauge(e.name, e.gauge);
        break;
      case SnapshotEntry::Kind::kHistogram:
        add_histogram(e.name, e.histogram);
        break;
    }
  }
}

}  // namespace bbb::obs
