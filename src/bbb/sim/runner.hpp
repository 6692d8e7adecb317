#pragma once
/// \file runner.hpp
/// The Monte-Carlo engine: run an experiment's replicates in parallel and
/// fold the per-replicate metrics into summary statistics.
///
/// Determinism contract: replicate r of an experiment with master seed s
/// always uses engine rng::SeedSequence(s).engine(r), and summaries fold
/// records in replicate order — so results are bit-identical for any
/// thread count (property-tested in tests/sim).

#include <vector>

#include "bbb/obs/metrics.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/sim/experiment.hpp"
#include "bbb/stats/running_stats.hpp"

namespace bbb::sim {

/// Aggregated outcome of one experiment.
struct RunSummary {
  ExperimentConfig config;
  std::string protocol_name;  ///< canonical Protocol::name()
  stats::RunningStats probes;
  stats::RunningStats max_load;
  stats::RunningStats min_load;
  stats::RunningStats gap;
  stats::RunningStats psi;
  stats::RunningStats log_phi;
  stats::RunningStats reallocations;
  stats::RunningStats rounds;
  std::uint32_t failures = 0;  ///< replicates with completed == false
  /// Raw rows in replicate order; empty when the config set
  /// keep_records = false (the folded statistics above are unaffected).
  std::vector<ReplicateRecord> records;
  /// Metric snapshot (counters summed across replicates, wall-time
  /// histograms merged in replicate order); empty when the config's obs
  /// level is off.
  obs::Snapshot obs;

  /// probes / m — the per-ball allocation cost the paper's Table 1 compares.
  [[nodiscard]] double probes_per_ball() const;
};

/// Execute one replicate (exposed for tests and custom aggregation). An
/// unset layout is resolved as run_experiment resolves it.
[[nodiscard]] ReplicateRecord run_replicate(const ExperimentConfig& config,
                                            std::uint32_t replicate_index);

/// Run all replicates on `pool` and aggregate.
/// \throws std::invalid_argument for bad config (unknown spec, n == 0,
///         replicates == 0).
[[nodiscard]] RunSummary run_experiment(const ExperimentConfig& config,
                                        par::ThreadPool& pool);

/// Convenience overload owning a transient pool (hardware concurrency).
[[nodiscard]] RunSummary run_experiment(const ExperimentConfig& config);

}  // namespace bbb::sim
