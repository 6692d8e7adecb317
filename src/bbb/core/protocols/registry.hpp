#pragma once
/// \file registry.hpp
/// String-spec factory for the one rule vocabulary spanning batch and
/// dynamic execution. A spec is a name plus optional bracketed integer
/// arguments. Every factory is one n-independent parse (the only family
/// dispatch; it validates every argument that can be checked without n)
/// followed, where a rule is needed, by one bind step to (n, m_hint):
///
///   * `make_rule(spec, n, m_hint)` = parse + bind: the streaming decision
///     rule — what the tracer and every embedding application consume;
///   * `make_streaming_allocator(spec, n, m_hint, layout)` = parse + bind
///     + the matching BinState — what the dyn engine and sim replicates
///     drive;
///   * `make_protocol(spec)` = parse only (no rule, no state): the batch
///     `Protocol`, whose run(m, n, gen) is
///     `make_streaming_allocator(spec, n, m)` + the rule's batch hook
///     `run_batch(m)` over a wide state — or `shard::ShardedProtocol` for
///     `shards[t]:` specs.
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
#include <memory>
#include <string>
#include <vector>

#include "bbb/core/protocol.hpp"
#include "bbb/core/rule.hpp"

namespace bbb::core {

/// Build a batch protocol from a spec string. Only parses: limits that
/// depend on n (left[d] with d > n, ...) are checked by run().
/// \throws std::invalid_argument for unknown names or malformed/missing args.
[[nodiscard]] std::unique_ptr<Protocol> make_protocol(const std::string& spec);

/// Build a streaming rule from a spec string for a system of n bins.
/// `m_hint` provisions rules that need the total ball count up-front
/// (threshold's fixed bound); 0 means unknown, which falls back to m = n —
/// i.e. `threshold[c]` with no hint accepts load <= c. All other rules
/// ignore the hint. Rules read capacities off the BinState they are driven
/// against, so a `capacities=` prefix is rejected here: build the matching
/// state + rule pair through make_streaming_allocator (or make_protocol).
/// \throws std::invalid_argument for unknown names, malformed args, or
///         parameters invalid at this n (left[d] with d > n, ...).
[[nodiscard]] std::unique_ptr<PlacementRule> make_rule(const std::string& spec,
                                                       std::uint32_t n,
                                                       std::uint64_t m_hint = 0);

/// Build a rule *and* its matching BinState from a spec that may carry a
/// `capacities=` prefix; the profile is cycled over the n bins. The
/// allocator's name() round-trips the full spec (prefix included).
/// `layout` selects the BinState storage (StateLayout::kCompact for the
/// giant-scale tier; metrics and placements are bit-identical either way,
/// but compact states reject sample_nonempty — see bin_state.hpp).
/// \throws std::invalid_argument as make_rule, or for a malformed prefix.
[[nodiscard]] std::unique_ptr<StreamingAllocator> make_streaming_allocator(
    const std::string& spec, std::uint32_t n, std::uint64_t m_hint = 0,
    StateLayout layout = StateLayout::kWide);

/// Expected per-bin load from which a run leaves the compact layout: near
/// the 8-bit lane limit (BinState::kCompactLaneMax = 255) the overflow
/// side-table traffic outweighs the smaller slab (n = 2^16 greedy[2]:
/// compact 3.3x faster than wide at load 64, 1.3x slower at 320).
inline constexpr std::uint64_t kCompactLoadCliff = BinState::kCompactLaneMax * 3 / 4;

/// The BinState layout a run of `spec` over n bins holding about
/// `expected_balls` balls should use: kWide for batched[k] (its LW rounds
/// need the wide state) or when ceil(expected_balls / n) reaches
/// kCompactLoadCliff, else kCompact. Both give identical records except
/// batched[k]'s, so this only picks the faster path. Departures served by
/// sample_nonempty need kWide whatever this says (the dyn engine checks).
/// \throws std::invalid_argument as make_protocol for a malformed spec.
[[nodiscard]] StateLayout preferred_layout(const std::string& spec, std::uint32_t n,
                                           std::uint64_t expected_balls);

/// All recognized spec shapes, for --help / --list output.
[[nodiscard]] std::vector<std::string> protocol_specs();

}  // namespace bbb::core
