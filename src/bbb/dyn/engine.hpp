#pragma once
/// \file engine.hpp
/// The event-driven dynamic engine: drive a workload's event stream into a
/// streaming allocator, maintain the ball registry departures need,
/// snapshot time-windowed metrics, and fold replicates through the same
/// par/ + stats/ machinery sim/runner uses for batch experiments.
///
/// Measurement model: the first `warmup` events burn in (the supermarket
/// model needs to fill to its stationary occupancy), the next `events`
/// events are measured. Steady-state scalars are *time-weighted* averages
/// over the measured window — each visited state is weighted by the
/// holding time until the next event, not counted once per event, because
/// the embedded jump chain over-weights high-occupancy states when the
/// total event rate grows with occupancy. `tail[k]` is the time-average
/// fraction of bins with load >= k — the quantity the Luczak–McDiarmid
/// fixed point predicts. Snapshots every `stride` measured events feed
/// trajectory plots the way sim/trace does for batch runs.
///
/// Determinism contract (mirrors sim/runner): replicate r of a config with
/// master seed s uses engine rng::SeedSequence(s).engine(r) for the
/// workload clock, the allocator's probes, and victim selection, in one
/// sequential stream — results are bit-identical for any thread count.
///
/// Victim selection caveat: rules that relocate balls after placement
/// (cuckoo; `Protocol::stable_ball_identity() == false`) make any recorded
/// "ball b sits in bin i" stale, so for those the engine overrides the
/// workload's ball-based victim selection with uniform-nonempty-bin.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bbb/core/rule.hpp"
#include "bbb/dyn/workload.hpp"
#include "bbb/obs/harvest.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/stats/running_stats.hpp"

namespace bbb::dyn {

/// One dynamic experiment: allocator x workload at fixed n, replicated.
struct DynConfig {
  static constexpr std::uint32_t kMaxTail = 4096;  ///< domain of tail_max

  std::string allocator_spec = "adaptive-net";
  std::string workload_spec = "supermarket[90]";
  std::uint32_t n = 1024;         ///< bins
  std::uint64_t m_hint = 0;       ///< total-count hint for fixed-bound rules
                                  ///< (threshold); 0 = unknown (registry uses n)
  /// BinState storage layout; a set value pins it (perfbench does). Unset
  /// means derived, once per run: wide when departures serve busy bins
  /// (supermarket, or cuckoo's unstable ball identity) — sample_nonempty
  /// needs the wide index — else Protocol::preferred_layout at the workload's
  /// steady_balls(). A pinned compact layout fails at the first such
  /// departure (BinState::sample_nonempty throws std::logic_error).
  std::optional<core::StateLayout> layout;
  std::uint64_t warmup = 32'768;  ///< burn-in events before measurement
  std::uint64_t events = 65'536;  ///< measured events
  std::uint64_t stride = 1'024;   ///< measured events between snapshots
  /// Track frac(load >= k) for k <= tail_max. Every event scans all
  /// tail_max + 1 levels, so run_dynamic rejects tail_max > kMaxTail.
  std::uint32_t tail_max = 12;
  std::uint32_t replicates = 8;
  std::uint64_t seed = 42;
  /// Observability settings. `counters` harvests the core's passive
  /// counters per replicate; `full` additionally times every place/remove
  /// into per-replicate latency histograms (the one layer where per-event
  /// timing is proportionate: dyn events cost microseconds, not the
  /// nanoseconds of a batch placement) and emits heartbeats. Never
  /// affects placements or the randomness stream.
  obs::ObsConfig obs;

  /// Human-readable one-line description for logs and table titles; names
  /// the layout when one is set.
  [[nodiscard]] std::string describe() const;
};

/// One time-windowed snapshot of a running dynamic system.
struct DynSnapshot {
  double time = 0.0;          ///< workload clock at the snapshot
  std::uint64_t events = 0;   ///< measured events so far
  std::uint64_t balls = 0;    ///< net balls in the system
  std::uint64_t probes = 0;   ///< cumulative probes
  std::uint32_t max_load = 0;
  std::uint32_t min_load = 0;
  double psi = 0.0;
  double log_phi = 0.0;
};

/// Steady-state outcome of one replicate. All mean_* fields and `tail`
/// are time-weighted averages over the measured window.
struct DynReplicate {
  double mean_balls = 0.0;  ///< time-avg net balls over the measured window
  double mean_psi = 0.0;
  double mean_gap = 0.0;
  double mean_max = 0.0;
  std::uint32_t peak_max = 0;       ///< worst max load seen while measuring
  double probes_per_ball = 0.0;     ///< probes per placed ball, measured window
  /// Departure events that arrived with zero balls in the system. The
  /// shipped generators never emit one (their departure clock has rate
  /// zero when empty, asserted across every generator x allocator combo in
  /// tests/dyn/engine_test.cpp); a nonzero count flags a broken custom
  /// generator — the event still consumed measured time and was *not*
  /// applied.
  std::uint64_t dropped_departures = 0;
  std::vector<double> tail;         ///< tail[k] = time-avg frac bins load >= k
  std::vector<DynSnapshot> snapshots;
  /// Core counters harvested after the replicate (obs level >= counters).
  obs::CoreCounters counters;
  /// Replicate wall time, filled by the run driver (obs/run.hpp) at obs
  /// level >= counters; run_dynamic_replicate called directly leaves it 0.
  std::uint64_t wall_ns = 0;
  /// Per-event latency histograms over the whole replicate, filled only
  /// at obs level full: every arrival's place() / place_weighted() call
  /// and every applied departure's remove() call.
  obs::LatencyHistogram place_ns;
  obs::LatencyHistogram remove_ns;
};

/// Aggregated outcome of one dynamic experiment.
struct DynSummary {
  DynConfig config;
  std::string allocator_name;  ///< canonical StreamingAllocator::name()
  std::string workload_name;   ///< canonical Workload::name()
  stats::RunningStats balls;
  stats::RunningStats psi;
  stats::RunningStats gap;
  stats::RunningStats max_load;
  stats::RunningStats peak_max;
  stats::RunningStats probes_per_ball;
  std::uint64_t dropped_departures = 0;   ///< summed over replicates
  std::vector<stats::RunningStats> tail;  ///< per-k fold of replicate tails
  std::vector<DynReplicate> replicates;   ///< raw rows, replicate order
  /// Metric snapshot (counters summed, place/remove latency histograms
  /// merged in replicate order, steady-state gap/Ψ gauges); empty when
  /// the config's obs level is off.
  obs::Snapshot obs;

  /// Mean steady-state Psi / n — the smoothness number bench_dyn_churn
  /// reports (Corollary 3.5 says O(1) for the batch protocol).
  [[nodiscard]] double psi_per_bin() const;
};

/// Execute one replicate (exposed for tests and custom aggregation). An
/// unset layout is resolved as run_dynamic resolves it.
[[nodiscard]] DynReplicate run_dynamic_replicate(const DynConfig& config,
                                                 std::uint32_t replicate_index);

/// Run all replicates on `pool` and aggregate (fold in replicate order).
/// \throws std::invalid_argument for bad config (unknown specs, n == 0,
///         replicates == 0, events == 0).
[[nodiscard]] DynSummary run_dynamic(const DynConfig& config, par::ThreadPool& pool);

/// Convenience overload owning a transient pool (hardware concurrency).
[[nodiscard]] DynSummary run_dynamic(const DynConfig& config);

}  // namespace bbb::dyn
