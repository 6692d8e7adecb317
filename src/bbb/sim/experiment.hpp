#pragma once
/// \file experiment.hpp
/// Experiment configuration and per-replicate records — the vocabulary
/// shared by the Monte-Carlo runner and every bench.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/obs/harvest.hpp"
#include "bbb/obs/obs.hpp"
#include "bbb/shard/counters.hpp"

namespace bbb::sim {

/// One experiment: a protocol at a fixed (m, n), repeated `replicates`
/// times with independent derived seeds.
struct ExperimentConfig {
  std::string protocol_spec = "adaptive";  ///< registry spec, see registry.hpp
  std::uint64_t m = 0;                     ///< balls
  std::uint32_t n = 1;                     ///< bins
  std::uint32_t replicates = 20;           ///< independent runs
  std::uint64_t seed = 42;                 ///< master seed
  /// BinState storage layout. Unset (the default) means derived:
  /// Protocol::preferred_layout(n, m) picks compact unless ceil(m/n)
  /// reaches the side-table cliff. A set value pins the layout (perfbench
  /// and the layout lockstep tests do). Records are identical in both
  /// layouts. run_experiment resolves the layout once, so
  /// RunSummary::config names the one that ran.
  std::optional<core::StateLayout> layout;
  /// Keep the raw per-replicate rows in RunSummary::records. Summary
  /// statistics are always folded; switch this off in large sweeps so a
  /// grid of thousands of configs does not retain every raw row in memory.
  bool keep_records = true;
  /// Observability settings (level, trace sink, heartbeat cadence). Off by
  /// default: replicates then run the uninstrumented path of PRs 1-6 and
  /// RunSummary::obs stays empty. Never affects placements (see obs.hpp).
  obs::ObsConfig obs;

  /// Human-readable "spec m=... n=... reps=..." line for logs; names the
  /// layout when one is set.
  [[nodiscard]] std::string describe() const;
};

/// The per-replicate scalar outputs every analysis consumes.
struct ReplicateRecord {
  double probes = 0.0;         ///< allocation time (bin samples / messages)
  double max_load = 0.0;
  double min_load = 0.0;
  double gap = 0.0;            ///< max - min
  double psi = 0.0;            ///< quadratic potential at t = m
  double log_phi = 0.0;        ///< ln of exponential potential at t = m
  double reallocations = 0.0;  ///< post-placement moves (CRS, cuckoo)
  double rounds = 0.0;         ///< synchronous rounds (parallel protocols)
  bool completed = true;
  /// Final level counts: levels[l] = bins holding exactly l balls, for
  /// l = 0..max_load (size max_load + 1). O(max load), read off the
  /// state's incremental counts, so no load vector is materialized.
  std::vector<std::uint32_t> levels;
  /// Exact core counters (probes, lookahead, compact side-table traffic)
  /// harvested after the replicate — populated only when the experiment's
  /// obs level is counters or full; all-zero otherwise.
  obs::CoreCounters counters;
  /// Sharded-engine counters (cross-shard probe traffic, deferrals, inbox
  /// entries), aggregated over the replicate's shards — populated under
  /// the same condition, and only for `shards[t]:` specs.
  shard::ShardCounters shard_counters;
  /// Replicate wall time, filled by the run driver (obs/run.hpp) under the
  /// same condition; run_replicate called directly leaves it 0.
  std::uint64_t wall_ns = 0;
};

}  // namespace bbb::sim
