#pragma once
/// \file engine.hpp
/// The law tier's replicate runner — the astronomical-n counterpart of
/// sim::run_experiment. Where the exact tiers simulate every ball, this
/// tier samples the *law* of the process directly:
///
///   * `one-choice` replicates draw exact occupancy profiles through the
///     Poissonize-and-correct sampler (one_choice.hpp) — Monte-Carlo over
///     seeds, each replicate exact in distribution, at O(levels + sqrt(m))
///     per replicate instead of O(m + n);
///   * `greedy[d]` and `mixed[d,b]` (the (1+beta)-choice mixture with
///     beta = b/100) evaluate the deterministic fluid-limit tail curve
///     (theory::fluid_tail_curve) — no randomness survives the n -> infinity
///     limit, so the "replicate" is a single ODE solve.
///
/// The determinism contract matches the sim tier exactly: replicate r of a
/// run with master seed s uses rng::SeedSequence(s).engine(r), so law-tier
/// results pin to golden values at seeds 0/42 like every other sampler.

#include <cstdint>
#include <string>
#include <vector>

#include "bbb/obs/metrics.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/par/thread_pool.hpp"
#include "bbb/stats/running_stats.hpp"

namespace bbb::law {

/// One law-tier experiment. Unlike sim::ExperimentConfig, n is 64-bit:
/// this tier exists precisely for bin counts no load vector can hold.
struct LawConfig {
  std::string protocol_spec = "one-choice";  ///< one-choice | greedy[d] | mixed[d,b]
  std::uint64_t m = 0;                       ///< balls
  std::uint64_t n = 1;                       ///< bins (astronomical values welcome)
  std::uint32_t replicates = 20;             ///< sampled runs (ignored by fluid specs)
  std::uint64_t seed = 42;                   ///< master seed
  bool keep_records = true;                  ///< retain raw per-replicate rows
  /// Observability settings. The law tier has no probe stream to count;
  /// `counters`/`full` record per-replicate sampler wall times and emit
  /// run/replicate/summary trace events. Never affects the sampled law.
  obs::ObsConfig obs;

  /// Human-readable "spec m=... n=... reps=..." line for logs.
  [[nodiscard]] std::string describe() const;
};

/// Scalar outputs of one sampled replicate (a strict subset of
/// sim::ReplicateRecord — the law tier has no probe or round counters).
struct LawReplicate {
  double max_load = 0.0;
  double min_load = 0.0;
  double gap = 0.0;
  double psi = 0.0;
  double log_phi = 0.0;
};

/// Aggregated outcome of one law-tier experiment.
struct LawSummary {
  LawConfig config;
  std::string protocol_name;  ///< canonical spec (round-trips through parsing)
  /// True for Monte-Carlo specs (one-choice): the stats below fold
  /// `replicates` sampled profiles. False for fluid specs (greedy/mixed):
  /// the stats hold the single deterministic fluid estimate.
  bool sampled = false;
  stats::RunningStats max_load;
  stats::RunningStats min_load;
  stats::RunningStats gap;
  stats::RunningStats psi;
  stats::RunningStats log_phi;
  /// Sampled specs only: level counts summed over replicates, indexed by
  /// absolute load level (level_counts[j] = total bins seen at load j).
  /// This is the row the cross-validation chi-square tests consume.
  std::vector<std::uint64_t> level_counts;
  /// Fluid tail curve s_1..s_k for this spec at t = m/n (index [k-1] = s_k),
  /// and the max/min-load estimates it implies at this n. Filled for every
  /// spec — for one-choice it is the Poisson curve the samples fluctuate
  /// around, for greedy/mixed it is the headline output.
  std::vector<double> fluid_tails;
  std::uint32_t fluid_max_load = 0;
  std::uint32_t fluid_min_load = 0;
  /// Raw rows in replicate order (sampled specs with keep_records only).
  std::vector<LawReplicate> records;
  /// Metric snapshot (law.replicate.wall_ns histogram over the sampled
  /// replicates); empty when the config's obs level is off.
  obs::Snapshot obs;
};

/// Run a law-tier experiment. Sampled replicates run on `pool` and fold
/// in replicate order, so summaries are identical for any thread count.
/// \throws std::invalid_argument for bad config (unknown or malformed
///         spec, n == 0, replicates == 0 on a sampled spec).
[[nodiscard]] LawSummary run_law_experiment(const LawConfig& config,
                                            par::ThreadPool& pool);

/// Convenience overload owning a transient pool (hardware concurrency).
[[nodiscard]] LawSummary run_law_experiment(const LawConfig& config);

}  // namespace bbb::law
