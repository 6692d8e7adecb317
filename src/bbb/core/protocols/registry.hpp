#pragma once
/// \file registry.hpp
/// String-spec factory for the one rule vocabulary spanning batch and
/// dynamic execution. A spec is a name plus optional bracketed integer
/// arguments. `make_protocol(spec)` is the one n-independent parse (the
/// only family dispatch; it validates every argument that can be checked
/// without n). Its result, `Protocol`, is immutable and records everything
/// a driver needs to know about the spec: the canonical name, the
/// modifier prefixes, the bind step to (n, m_hint), and the layout facts.
/// A driver parses once per run and binds every replicate from it:
///
///   * `Protocol::bind(n, m_hint, layout)`: a rule plus its matching
///     BinState, what the dyn engine and sim replicates drive;
///   * `Protocol::run(m, n, gen)`: one batch run, `bind(n, m, kWide)` +
///     the rule's batch hook `run_batch(m)` (or, for `shards[t]:` specs,
///     the shard engine of shard/engine.hpp over a wide state);
///   * `make_rule` / `make_streaming_allocator`: parse + bind in one call,
///     for the tracer and every embedding application.
///
/// `Protocol::name()` / `PlacementRule::name()` of every built instance
/// parses back to an equivalent object (round-trip property, tested).
///
/// Recognized specs:
///   one-choice
///   greedy[d]            e.g. greedy[2]; 1 <= d <= kMaxChoices (1024)
///   left[d]              e.g. left[4]
///   memory[d,k]          e.g. memory[1,1]; 1 <= d <= kMaxChoices
///   threshold            = threshold[1]
///   threshold[slack]
///   doubling-threshold[guess]   guess-and-double unknown-m variant (0 = n)
///   adaptive             = adaptive[1]
///   adaptive[slack]
///   adaptive-net         = adaptive-net[1]; bound from the net ball count
///   adaptive-net[slack]
///   adaptive-total       = adaptive-total[1]; explicit total-count variant
///   adaptive-total[slack]
///   stale-adaptive[delta]
///   skewed-adaptive[s*100]   Zipf(s) probe bias, s scaled by 100
///   batched[capacity]
///   self-balancing
///   cuckoo[d,k]          e.g. cuckoo[2,4]
///
/// Any spec may carry a heterogeneous-capacity prefix
///   capacities=c0,c1,...:spec    e.g. capacities=1,2,4,8:greedy[2]
/// the profile is cycled over the run's n bins (bin i gets c_{i mod k}).
/// The probe-based rules one-choice / greedy[d] / left[d] then probe
/// proportionally to capacity and compare normalized loads l_i/c_i; every
/// other rule runs its classic uniform-probe logic over the capacitated
/// state (the uniform-probe baseline on unequal servers).
///
/// A spec may instead carry the sharded-engine prefix
///   shards[t]:spec               e.g. shards[4]:greedy[2]
/// which runs the rule on t workers over the shared-memory round phases of
/// shard/engine.hpp — exactly distribution-equal to the sequential rule
/// (t = 1 is the streaming loop, bit-identical). 1 <= t <= kMaxShards
/// (256). Cannot combine with `capacities=`; t > 1 supports one-choice /
/// greedy[d] / left[d].
///
/// threshold, doubling-threshold and the adaptive families all build one
/// BoundedProbeRule (bounded_probe.hpp): probe until load <=
/// ceil((c + 1)/n) + slack - 1, where the clock c is
///   adaptive, adaptive-total, skewed-adaptive   T, the balls placed so far
///   adaptive-net                                B, the balls present now
///   threshold                                   m - 1 (m = m_hint, or n)
///   doubling-threshold                          G(T) - 1, the doubled guess
///   stale-adaptive                              delta * floor(T / delta)
/// (slack 1 where the spec has none). Binding rejects a first bound above
/// 2^32 - 1 and a skew whose coldest bin Zipf(s) cannot reach. The three
/// adaptive spellings are identical on arrivals-only streams; net and
/// total only diverge once departures arrive.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"
#include "bbb/core/spec.hpp"

namespace bbb::shard {
class ShardedAllocator;
}  // namespace bbb::shard

namespace bbb::core {

/// Expected per-bin load from which a run leaves the compact layout: near
/// the 8-bit lane limit (BinState::kCompactLaneMax = 255) the overflow
/// side-table traffic outweighs the smaller slab (n = 2^16 greedy[2]:
/// compact 3.3x faster than wide at load 64, 1.3x slower at 320).
inline constexpr std::uint64_t kCompactLoadCliff = BinState::kCompactLaneMax * 3 / 4;

/// One parsed spec. Everything that can be rejected without n has been by
/// the time it exists; the n-dependent limits (left[d] with d > n, ...)
/// are checked when it binds. Immutable: one instance serves every
/// replicate of a run concurrently (each with its own engine).
class Protocol {
 public:
  /// Canonical spec, e.g. "adaptive", "greedy[2]", "capacities=1,2:greedy[2]".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The t of a `shards[t]:` spec; 0 for every other spec.
  [[nodiscard]] std::uint32_t shards() const noexcept { return prefix_.shards; }

  /// Allocate m balls into n fresh bins using randomness from `gen`.
  /// m == 0 yields an empty allocation. A `shards[t]:` spec runs the shard
  /// engine over a wide state, whose t = 1 form is the streaming loop: so
  /// `shards[1]:batched[k]` runs batched's capacity-bounded streaming
  /// form, not its LW rounds.
  /// \throws std::invalid_argument if n == 0 or a limit of the rule at n
  ///         fails.
  [[nodiscard]] AllocationResult run(std::uint64_t m, std::uint32_t n,
                                     rng::Engine& gen) const;

  /// The rule for (n, m_hint) over a fresh state of `layout`; the
  /// allocator's name() is name(). `m_hint` provisions rules that need the
  /// total ball count up-front (threshold's fixed bound); 0 means unknown,
  /// which falls back to m = n. Compact states reject sample_nonempty (see
  /// bin_state.hpp); metrics and placements are bit-identical otherwise.
  /// \throws std::invalid_argument for a `shards[t]:` spec (use
  ///         bind_sharded) or a limit of the rule at n.
  [[nodiscard]] std::unique_ptr<StreamingAllocator> bind(std::uint32_t n,
                                                         std::uint64_t m_hint,
                                                         StateLayout layout) const;

  /// The shard engine of a `shards[t]:` spec for (n, m_hint) in `layout`.
  /// \throws std::invalid_argument if shards() == 0, or as
  ///         shard::ShardedAllocator.
  [[nodiscard]] std::unique_ptr<shard::ShardedAllocator> bind_sharded(
      std::uint32_t n, std::uint64_t m_hint, StateLayout layout) const;

  /// The BinState layout a run over n bins holding about `expected_balls`
  /// balls should use: kWide for batched[k] (its LW rounds need the wide
  /// state) or when ceil(expected_balls / n) reaches kCompactLoadCliff,
  /// else kCompact. Both give identical records except batched[k]'s, so
  /// this only picks the faster path. Departures served by sample_nonempty
  /// need kWide whatever this says (the dyn engine checks).
  [[nodiscard]] StateLayout preferred_layout(std::uint32_t n,
                                             std::uint64_t expected_balls) const;

  /// False for rules that relocate balls after placement (cuckoo): a
  /// recorded "ball b sits in bin i" goes stale, so the dyn engine picks
  /// departure victims by bin, not by ball.
  [[nodiscard]] bool stable_ball_identity() const noexcept {
    return stable_ball_identity_;
  }

 private:
  /// Builds the rule once the run's n and m hint are known.
  using RuleBinder = std::function<std::unique_ptr<PlacementRule>(std::uint32_t n,
                                                                   std::uint64_t m_hint)>;

  Protocol() = default;

  /// The rule for (n, m_hint), after rejecting a `shards[t]:` spec.
  [[nodiscard]] std::unique_ptr<PlacementRule> bind_rule(std::uint32_t n,
                                                         std::uint64_t m_hint) const;

  friend std::unique_ptr<Protocol> make_protocol(const std::string& spec);
  friend std::unique_ptr<PlacementRule> make_rule(const std::string& spec,
                                                  std::uint32_t n, std::uint64_t m_hint);

  SpecPrefix prefix_;
  std::string name_;
  RuleBinder binder_;
  bool needs_wide_ = false;  ///< batched[k]: its LW rounds run on wide states only
  bool stable_ball_identity_ = true;
};

/// Parse a spec string. Only parses: no rule, no state.
/// \throws std::invalid_argument for unknown names, malformed or missing
///         args, or a `shards[t]:` spec the shard engine cannot run.
[[nodiscard]] std::unique_ptr<Protocol> make_protocol(const std::string& spec);

/// `make_protocol(spec)` bound to a bare streaming rule for n bins (see
/// Protocol::bind for `m_hint`). Rules read capacities off the BinState
/// they are driven against, so a `capacities=` prefix is rejected here:
/// build the matching state + rule pair through Protocol::bind.
/// \throws std::invalid_argument as make_protocol and Protocol::bind.
[[nodiscard]] std::unique_ptr<PlacementRule> make_rule(const std::string& spec,
                                                       std::uint32_t n,
                                                       std::uint64_t m_hint = 0);

/// `make_protocol(spec)->bind(n, m_hint, layout)`.
[[nodiscard]] std::unique_ptr<StreamingAllocator> make_streaming_allocator(
    const std::string& spec, std::uint32_t n, std::uint64_t m_hint = 0,
    StateLayout layout = StateLayout::kWide);

/// All recognized spec shapes, for --help / --list output.
[[nodiscard]] std::vector<std::string> protocol_specs();

}  // namespace bbb::core
