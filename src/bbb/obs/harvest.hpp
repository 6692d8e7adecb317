#pragma once
/// \file harvest.hpp
/// The one-way bridge from the core's passive counters to the obs layer.
/// The streaming core knows nothing about obs — it keeps plain integers
/// in code that is already cold (side-table touches, lookahead refills,
/// explode fallbacks) or already counted (probes). After the work, a
/// driver *harvests* those integers into a `CoreCounters` struct and
/// folds it into the run's Snapshot under the canonical dotted names.
/// Post-hoc harvesting is what makes `--obs=counters` free on the per-ball
/// path: reading nine integers once per replicate.
///
/// Canonical name catalog for the harvested counters (the full catalog,
/// including dyn/sim/law metrics, lives in docs/OBSERVABILITY.md):
///   core.probe.count                 random bin choices (allocation time)
///   core.ball.placed                 total weight ever placed
///   core.rule.reallocations          post-placement moves (cuckoo kicks)
///   core.rule.rounds                 synchronous rounds / balancing passes
///   core.lookahead.refills           probe-lookahead buffer refills
///   core.lookahead.discarded_words   read-ahead words thrown away
///   state.compact.promotions         8-bit lane -> overflow side-table
///   state.compact.demotions          overflow side-table -> 8-bit lane
///   core.weighted.explode_fallbacks  weighted chains placed unit-by-unit
///   core.batch.batches               kernel-path place_batch calls
///   core.batch.waves                 batch-kernel waves processed
///   core.batch.fast_balls            balls placed by the wave path
///   core.batch.exact_balls           of those, placed by the exact step
///   core.batch.fallback_balls        balls re-run on the exact scalar path
///   core.state.hugepage_bytes        compact lane slab bytes on huge pages
///   shard.sync_rounds                synchronized rounds, summed over shards
///   shard.probe.cross_shard          probes routed to another shard's bins
///   shard.ball.deferred              balls replayed in the cleanup sub-phase
///   shard.message.count              cross-shard inbox entries (probes+commits)

#include <cstdint>

#include "bbb/core/rule.hpp"
#include "bbb/obs/metrics.hpp"
#include "bbb/shard/counters.hpp"

namespace bbb::obs {

/// Everything the core can account for one run, as plain integers —
/// cheap to store per replicate (sim keeps one per ReplicateRecord).
struct CoreCounters {
  std::uint64_t probes = 0;
  std::uint64_t balls_placed = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t lookahead_refills = 0;
  std::uint64_t lookahead_discarded_words = 0;
  std::uint64_t compact_promotions = 0;
  std::uint64_t compact_demotions = 0;
  std::uint64_t explode_fallbacks = 0;
  std::uint64_t batch_batches = 0;
  std::uint64_t batch_waves = 0;
  std::uint64_t batch_fast_balls = 0;
  std::uint64_t batch_fallback_balls = 0;
  std::uint64_t batch_exact_balls = 0;
  // Cold: a property of the state's allocation, read once per run;
  // appended last so the per-run counters above keep their offsets.
  std::uint64_t hugepage_bytes = 0;

  /// Element-wise sum (fold across replicates).
  void accumulate(const CoreCounters& other) noexcept;

  friend bool operator==(const CoreCounters&, const CoreCounters&) = default;
};

/// Read every counter a StreamingAllocator exposes: the rule's probe and
/// placement counts, its lookahead (when it has one), the state's compact
/// side-table traffic and huge-page backing, and the allocator's explode
/// fallbacks. O(1).
[[nodiscard]] CoreCounters harvest(const core::StreamingAllocator& alloc);

/// Harvest from a bare rule + state pair (a shard's rule and state).
/// `state` may be null when only rule-side counters exist.
[[nodiscard]] CoreCounters harvest(const core::PlacementRule& rule,
                                   const core::BinState* state);

/// Fold into `snapshot` under the canonical names above. Zero-valued
/// counters with no possible source are still registered when their
/// machinery was in play (probes/placed always; the rest only when
/// nonzero) so summaries stay compact.
void fold_into(Snapshot& snapshot, const CoreCounters& counters);

/// Fold a sharded run's aggregated counters under the shard.* names above.
/// Registered only when the multi-shard round protocol actually ran
/// (messages or rounds nonzero), so unsharded and shards[1] summaries stay
/// free of shard rows; all are summed counters.
void fold_into(Snapshot& snapshot, const shard::ShardCounters& counters);

}  // namespace bbb::obs
