#pragma once
/// \file engine.hpp
/// The sharded multi-core allocation engine: n bins partitioned across T
/// workers (shard/topology.hpp), each owning one core::BinState plus one
/// derived RNG substream. The workers share one address space: they
/// exchange probes and commits through plain per-(source, destination)
/// vectors published by a barrier — the round model of the 1-2-3-Toolkit,
/// run at memory speed inside one process.
///
/// ## Round protocol (T > 1)
///
/// Balls are processed in synchronized rounds of at most `round_balls`
/// balls, each round split into contiguous per-worker slices (ball order
/// is therefore globally fixed: round-major, then worker-major, then
/// slice index — never schedule-dependent). A round runs five phases,
/// the first four each closed by a yielding barrier (par/spin_barrier.hpp):
///
///   A  draw    each worker draws its balls' d probe bins (and one
///              tie-break word for greedy) from its own substream and
///              files every probe `{local bin, ball, slot}` in the owning
///              shard's inbox;
///   B  serve   each owner walks its inboxes requester-major — global ball
///              order — and writes the *round-start* load plus a conflict
///              verdict straight into the requester's probe slot: a probe
///              on a bin already probed by an earlier ball this round
///              marks its ball conflicted. Every slot has exactly one
///              writer, so the barrier publishes every verdict;
///   C  decide  for every non-conflicted ball each worker picks the winner
///              (least-loaded with the pre-drawn tie-break word; leftmost
///              for left[d]) and files it in the owner's commit inbox;
///   D  apply   each owner applies its commits (loads were read before any
///              commit applied, so every non-conflicted ball decided on
///              exactly the loads the *sequential* process would show it
///              — no earlier ball probed, hence committed to, its bins);
///   E  cleanup worker 0 replays the conflicted (deferred) balls serially
///              in global ball order against *current* loads, reading and
///              writing the other shards' states directly. The other
///              workers meanwhile draw the next round, which touches no
///              state; the next barrier publishes the replay.
///
/// The conflict-deferral rule is what makes the engine *exactly*
/// distribution-equal to the sequential streaming core (not merely
/// approximately, as a stale-loads batch would be): every ball decides on
/// precisely the loads it would have seen at its position in the global
/// sequential order. The statistical battery in
/// tests/shard/equivalence_test.cpp cross-validates this at alpha = 1e-4,
/// and tests/shard/engine_test.cpp replays the same substreams through a
/// literal sequential simulation and demands bit-equality.
///
/// Multi-shard mode supports the probe-based rules one-choice /
/// greedy[d] / left[d] (uniform capacities, d <= 8). Probe draws use the
/// same rejection-sampled rng::uniform_below mapping as the sequential
/// rules, from per-shard substreams derived via rng::SeedSequence
/// nesting, so results depend only on (seed, shards, round_balls) —
/// never on thread scheduling. Worker 0 runs on the calling thread; the
/// other T - 1 are spawned per run.
///
/// ## Single-shard mode (T == 1)
///
/// The calling thread drives the exact streaming loop — place_batch plus
/// finalize on the run's own engine — so every registry rule is supported
/// and the result is bit-for-bit identical to StreamingAllocator (all 14
/// golden pin families; proven in the ShardLockstep suite). No thread is
/// created. `shards[1]:` is therefore a safe default anywhere the
/// sequential core runs today.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"
#include "bbb/shard/counters.hpp"
#include "bbb/shard/topology.hpp"

namespace bbb::shard {

/// Largest d the multi-shard probe machinery supports (deferred-ball
/// descriptors carry a fixed probe array). The sequential core has no
/// such cap; shards[t>1] with a larger d throws at construction.
inline constexpr std::uint32_t kMaxShardD = 8;

/// The decision rule a multi-shard run implements natively.
enum class DecisionKind : std::uint8_t { kOneChoice, kGreedy, kLeft };

/// The inner rule's canonical name and, for t > 1, the decision kind and d
/// the round protocol implements natively.
struct ShardFamily {
  DecisionKind kind = DecisionKind::kOneChoice;
  std::uint32_t d = 1;
  std::string name;
};

/// The one multi-shard family check, run by ShardedAllocator and by
/// core::make_protocol at parse.
/// \throws std::invalid_argument for shards outside [1, core::kMaxShards],
///         an invalid inner spec, or (t > 1) a rule outside one-choice /
///         greedy[d <= kMaxShardD] / left[d <= kMaxShardD].
[[nodiscard]] ShardFamily shard_family(const std::string& inner_spec,
                                       std::uint32_t shards);

/// Engine knobs beyond the inner spec and n.
struct ShardOptions {
  std::uint32_t shards = 1;
  /// Balls in flight per synchronized round (T > 1). Clamped to
  /// [shards, 65535 * shards] — the upper bound keeps round-local ball
  /// ids inside the 16-bit field of a probe request. Larger rounds
  /// amortize the barriers; the deferral rate grows as ~(round_balls * d)^2 / (2n),
  /// so the default stays small relative to any interesting n.
  std::uint32_t round_balls = 8192;
  core::StateLayout layout = core::StateLayout::kWide;
  /// Forwarded to make_rule for rules that provision on total balls
  /// (threshold's bound) — single-shard mode only.
  std::uint64_t m_hint = 0;
};

/// One-shot sharded run: construct, run(m, gen), read the merged state.
class ShardedAllocator {
 public:
  /// \param inner_spec a registry rule spec *without* modifier prefixes.
  /// \throws std::invalid_argument for unknown/invalid specs, shards
  ///         outside [1, min(n, core::kMaxShards)], or a multi-shard spec
  ///         outside the supported one-choice / greedy[d<=8] / left[d<=8]
  ///         set.
  ShardedAllocator(const std::string& inner_spec, std::uint32_t n, ShardOptions opt);
  ~ShardedAllocator();

  ShardedAllocator(const ShardedAllocator&) = delete;
  ShardedAllocator& operator=(const ShardedAllocator&) = delete;

  /// Place m balls. Blocking: T - 1 workers are spawned, run the whole
  /// stream beside the calling thread, and are joined before return;
  /// worker exceptions (and a failed spawn) rethrow here. The engine is
  /// one-shot (\throws std::logic_error on a second call).
  /// T == 1 consumes `gen` exactly like the sequential streaming loop;
  /// T > 1 draws a single word from `gen` as the nested master seed for
  /// the per-shard substreams.
  void run(std::uint64_t m, rng::Engine& gen);

  /// "shards[T]:" + canonical inner rule name.
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t n() const noexcept { return topo_.n(); }
  [[nodiscard]] std::uint32_t shards() const noexcept { return topo_.shards(); }
  [[nodiscard]] core::StateLayout layout() const noexcept { return opt_.layout; }

  // -- merged post-run reads (undefined before run()) ----------------------

  [[nodiscard]] std::uint64_t balls() const noexcept;
  [[nodiscard]] std::uint64_t probes() const noexcept;
  [[nodiscard]] std::uint32_t max_load() const noexcept;
  [[nodiscard]] std::uint32_t min_load() const noexcept;
  [[nodiscard]] std::uint32_t gap() const noexcept;
  /// Merged quadratic potential: sum_s S2_s - t^2/n — bit-identical to
  /// BinState::psi() of an unsharded state with the same loads.
  [[nodiscard]] double psi() const noexcept;
  /// Merged ln Phi from the summed raw potential weights.
  [[nodiscard]] double log_phi() const noexcept;
  /// Merged level counts: entry l = bins at load exactly l across shards.
  [[nodiscard]] std::vector<std::uint32_t> merged_level_counts() const;
  /// Concatenated per-shard loads in global bin order. O(n).
  [[nodiscard]] std::vector<std::uint32_t> copy_loads() const;
  /// The full result in batch vocabulary (materializes loads).
  [[nodiscard]] core::AllocationResult result() const;

  /// Aggregated per-shard counters (inbox entries, cross-shard probe
  /// ratio, deferrals) — passive, harvested by obs after run.
  [[nodiscard]] const ShardCounters& counters() const noexcept { return counters_; }
  /// Single-shard mode's inner rule, for CoreCounters harvesting
  /// (lookahead refills, batch-kernel waves); nullptr when T > 1.
  [[nodiscard]] const core::PlacementRule* rule() const noexcept {
    return rule_.get();
  }
  /// One shard's state, for tests. \throws std::out_of_range.
  [[nodiscard]] const core::BinState& shard_state(std::uint32_t s) const;
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Completed synchronized rounds (T > 1; 0 in single-shard mode, whose
  /// rounds are the inner rule's — e.g. self-balancing passes).
  [[nodiscard]] std::uint64_t sync_rounds() const noexcept { return sync_rounds_; }

 private:
  struct Worker;
  struct Sync;

  void run_single(std::uint64_t m, rng::Engine& gen);
  void run_sharded(std::uint64_t m, rng::Engine& gen);
  void worker_main(std::uint32_t s, std::uint64_t m, Sync& sync);
  void cleanup_round();

  [[nodiscard]] std::uint32_t decide_slot(const std::uint32_t* loads, std::uint32_t d,
                                          std::uint64_t aux) const noexcept;
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> group_range(
      std::uint32_t g) const noexcept;

  Topology topo_;
  ShardOptions opt_;
  std::string inner_name_;
  DecisionKind kind_ = DecisionKind::kOneChoice;
  std::uint32_t d_ = 1;
  std::uint64_t round_total_ = 0;  ///< balls per full round (clamped round_balls)
  bool ran_ = false;
  std::uint64_t sync_rounds_ = 0;
  ShardCounters counters_;

  // Single-shard mode.
  std::unique_ptr<core::PlacementRule> rule_;
  std::unique_ptr<core::BinState> single_state_;

  // Multi-shard mode.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace bbb::shard
