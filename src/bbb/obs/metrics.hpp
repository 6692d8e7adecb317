#pragma once
/// \file metrics.hpp
/// The one metric type: a name-sorted `Snapshot` of counters, gauges and
/// latency histograms under hierarchical dotted names
/// ("core.probe.count", "dyn.event.place_latency_ns"), the value the
/// drivers hand to CLIs, trace sinks, and summaries.
///
/// Cost model. A Snapshot is built once per run, on one thread, after the
/// work: the streaming core keeps plain integer counters in already-cold
/// code, and the drivers fold them in after the replicates have joined
/// (see harvest.hpp and run.hpp). Nothing here runs per ball or per
/// event, so a Snapshot carries no lock and no atomic, and `--obs=off`
/// runs the uninstrumented loop.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bbb/obs/latency_histogram.hpp"

namespace bbb::obs {

/// One metric in a Snapshot. Exactly one of the three payloads is live,
/// selected by `kind` (a tagged struct keeps the JSON/table writers
/// trivial; snapshots are small so the slack is irrelevant).
struct SnapshotEntry {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  /// Full histogram state, not just extracted quantiles, so snapshots
  /// merge losslessly (bbb_compare merges two runs' snapshots).
  LatencyHistogram histogram;
};

/// Name-sorted metric values. Value type: cheap to return from run_*
/// entry points and embed in summaries. A name keeps the kind it was
/// first folded in with: folding it as another kind throws
/// std::logic_error.
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  [[nodiscard]] bool empty() const noexcept { return entries.empty(); }
  /// Entry lookup by exact name; nullptr when absent.
  [[nodiscard]] const SnapshotEntry* find(std::string_view name) const noexcept;
  /// Convenience: counter value by name, 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;

  /// Add `n` to counter `name` (created at 0).
  void add_counter(std::string_view name, std::uint64_t n);
  /// Set gauge `name` to `v`; the last write wins.
  void set_gauge(std::string_view name, double v);
  /// Merge `h` into histogram `name` (created empty), losslessly.
  void add_histogram(std::string_view name, const LatencyHistogram& h);

  /// Fold `other` in through the three folds above: counters add, gauges
  /// take the other's value (it is the later sample), histograms merge.
  /// Names union.
  void merge(const Snapshot& other);

 private:
  /// The entry named `name`, inserted in name order when absent.
  SnapshotEntry& slot(std::string_view name, SnapshotEntry::Kind kind);
};

}  // namespace bbb::obs
