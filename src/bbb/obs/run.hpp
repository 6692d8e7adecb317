#pragma once
/// \file run.hpp
/// The one replicate harness behind sim::run_experiment,
/// dyn::run_dynamic and law::run_law_experiment: seeded replicates fan
/// out on a thread pool and fold in replicate order, so whatever a run
/// reports is independent of scheduling. A tier keeps only what is its
/// own: validation, its config and metric fields, its statistics fold and
/// any extra metrics. In-replicate heartbeats also stay with the tier,
/// the one place that sees a replicate's progress.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bbb/obs/harvest.hpp"
#include "bbb/obs/metrics.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/obs/trace_sink.hpp"
#include "bbb/par/parallel_for.hpp"

namespace bbb::obs {

/// Steady-clock nanoseconds since `start`.
[[nodiscard]] inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());
}

/// Run `one(r)` for every replicate r in [0, count) on `pool`; records come
/// back in replicate order. When `obs` has counters on, each record's
/// `wall_ns` is set to its own call's wall time; otherwise it is left as
/// `one` returned it.
template <class One, class Rec = std::invoke_result_t<One&, std::uint32_t>>
[[nodiscard]] std::vector<Rec> run_replicates(par::ThreadPool& pool, std::uint32_t count,
                                              const ObsConfig& obs, One one) {
  const bool timed = obs.counters_on();
  return par::parallel_map<Rec>(pool, count, [&](std::uint64_t r) {
    const auto start = std::chrono::steady_clock::now();
    Rec rec = one(static_cast<std::uint32_t>(r));
    if (timed) rec.wall_ns = elapsed_ns(start);
    return rec;
  });
}

/// The Snapshot every tier's records yield, in replicate order: the
/// `<tier>.replicate.wall_ns` histogram and, when `Rec` carries
/// `CoreCounters counters`, their sum under the core.* names.
template <class Rec>
[[nodiscard]] Snapshot fold_replicates(std::string_view tier, const std::vector<Rec>& records) {
  Snapshot snapshot;
  LatencyHistogram wall;
  for (const Rec& rec : records) wall.record(rec.wall_ns);
  snapshot.add_histogram(std::string(tier) + ".replicate.wall_ns", wall);
  if constexpr (requires(const Rec& rec) { rec.counters; }) {
    CoreCounters total;
    for (const Rec& rec : records) total.accumulate(rec.counters);
    fold_into(snapshot, total);
  }
  return snapshot;
}

/// A run's trace events, written only when the run traces (counters on
/// and a sink set). Construct it before the replicates start, so its
/// `run_start` precedes their heartbeats; call `finish` once the run's
/// Snapshot is built.
class RunTrace {
 public:
  /// Write `run_start` for `tool`; `config(line)` adds the tier's fields
  /// inside its `config` object.
  template <class ConfigFields>
  RunTrace(const ObsConfig& obs, std::string_view tool, ConfigFields config)
      : sink_(obs.counters_on() ? obs.sink.get() : nullptr), tool_(tool) {
    if (sink_ == nullptr) return;
    JsonLine line("run_start", tool_);
    line.begin_object("config");
    config(line);
    line.end_object();
    sink_->write(std::move(line));
  }

  /// Write one `replicate` line per record, in replicate order, with
  /// `metrics(line, rec)` adding its fields inside a `metrics` object;
  /// then the `summary` line carrying `snapshot`.
  template <class Rec, class MetricFields>
  void finish(const std::vector<Rec>& records, MetricFields metrics,
              const Snapshot& snapshot) const {
    if (sink_ == nullptr) return;
    for (std::size_t r = 0; r < records.size(); ++r) {
      JsonLine line("replicate", tool_);
      line.field("replicate", static_cast<std::uint64_t>(r)).begin_object("metrics");
      metrics(line, records[r]);
      line.end_object();
      sink_->write(std::move(line));
    }
    JsonLine line("summary", tool_);
    append_metrics(line, snapshot);
    sink_->write(std::move(line));
  }

 private:
  TraceSink* sink_;
  std::string_view tool_;
};

}  // namespace bbb::obs
