#pragma once
/// \file batch_kernel.hpp
/// The batch placement kernel: places waves of balls against the compact
/// 8-bit BinState slab with one bulk RNG block per wave, a vectorized
/// word->bin map + rejection scan (core/simd/), and a lean metric
/// commit — bit-identical to the scalar place_one stream (pinned in
/// tests/core/batch_kernel_test.cpp).
///
/// ## Wave anatomy
///
/// One wave driver serves all three families; each family supplies only
/// its Lemire streams, a call-free commit walk, and an exact one-ball
/// step. Per wave the driver (a) drains the rule's ProbeLookahead then
/// draws fresh engine words into a buffer (on a register copy of the
/// engine, see ProbeLookahead::next_block), (b) maps every buffered word
/// to the bin it will address if consumed as a candidate with the ISA
/// backend's `map_words` (Lemire's multiply is position-independent, the
/// same trick the lookahead's prefetch uses), which simultaneously
/// screens the whole wave for Lemire rejection candidates, (c)
/// prefetches the lanes of the first kPrefetchWords words, and (d) runs
/// the family's walk over the buffer, committing balls against the
/// *live* lane slab.
///
/// The walk carries the prefetch stream itself: while it commits the
/// ball at word k it prefetches the lane of word k + D, D =
/// kPrefetchWords (greedy[2], whose cursor advances 2 or 3 words, covers
/// k + D .. k + D + 2), so the misses of the next ~20 balls are always in
/// flight behind the current commit and a slab past the LLC costs memory
/// throughput, not memory latency, per ball. The warm-up in (c) is the
/// one burst whose misses nothing overlaps, which is why waves are long.
///
/// The walk is call-free and register-resident: it copies the state's
/// batch checkout (BinState::BatchMetrics) and its cursor into locals,
/// writes them back once on exit, and is compiled separately for callers
/// that do and do not want each ball's bin. It is branchless on random
/// data — load compares, tie selects, and the data-dependent cursor
/// advance are all arithmetic, with greedy[2]'s next-ball candidate bins
/// preloaded for both possible advances before the current ball's tie
/// resolves. The walk returns just before the first ball it cannot
/// commit lean: a candidate lane above kFastLoadMax (the 255 side-table
/// promotion is near, or the true load lives in the side-table), or a
/// winner whose new load is not yet a level of the histogram. The driver
/// places that one ball with the exact step — the rule's own decision
/// and add_ball over the same words — counts it (`exact_balls`), and
/// re-enters the walk. On a state below the ceiling only new top levels
/// step out, so at most max_load() balls per run do.
///
/// Reading the live lanes is what makes in-wave duplicates a non-event:
/// two balls probing the same bin serialize through the slab exactly as
/// the scalar stream would — no snapshot to go stale, no conflict
/// detection pass. The only wave-level validation left is the rejection
/// scan (probability ~ fill * n / 2^64 per wave — astronomically rare,
/// but a rejected draw shifts every later word's meaning, so the whole
/// wave replays through the exact step over the same buffered words: a
/// FIFO source chaining buffer -> lookahead -> engine). Validation
/// failures cost speed, never correctness.
///
/// The lean commit replays the weight-1 add_ball in identical FP order,
/// so Ψ and lnΦ stay bit-equal.
///
/// ## Randomness-consumption bookkeeping
///
/// greedy[2] consumes 2 words per ball plus a tie word when the candidate
/// loads are equal, so the word→ball assignment is data-dependent; the
/// commit walk tracks it exactly (cursor advances 2 + eq, tie bit read
/// at k + 2, which the walk's bound k + 3 <= fill keeps inside the wave).
/// left[2] consumes exactly 2 words per ball (Vöcking's tie-break is
/// deterministic), one-choice exactly one. Words drawn into a wave but
/// not consumed (at most 2, when ties exhaust the buffer mid-ball) carry
/// into the next wave, and after the last one are handed back to the
/// ProbeLookahead (`push_residue`, ahead of anything still queued), so a
/// place_one following a place_batch sees exactly the word a pure
/// place_one stream would — the engine-exclusivity contract of
/// core/probe.hpp, which is also why eligibility requires the lookahead
/// to be engaged.
///
/// Families: one-choice, greedy[2], left[2] on compact uniform-capacity
/// states. greedy[d>2] and left[d>2] interleave data-dependent tie draws
/// (greedy) or more than two group streams per ball (left) and route
/// through the base place_one loop; heterogeneous capacities carry
/// per-class metric state the lean commit does not maintain, so they are
/// ineligible by construction (see `eligible`).

#include <cstdint>
#include <vector>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/probe.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {

/// Wave-at-a-time placement over a compact BinState. One instance per
/// rule (scratch buffers are reused across calls; counters accumulate).
class BatchPlacer {
 public:
  /// Words buffered per wave. 2048 words is ~1000 greedy[2] balls, so the
  /// per-wave warm-up (the first kPrefetchWords lanes are prefetched at
  /// fill time and their misses overlap only each other) is paid rarely,
  /// while the word block and its bin map (24 KiB together) stay resident
  /// in a 48 KiB L1.
  static constexpr std::uint32_t kWaveWords = 2048;

  /// Lane prefetch distance of the commit walk, in words: committing the
  /// ball at word k prefetches the lane of word k + kPrefetchWords. 48
  /// words (~20 greedy[2] balls) covers a DRAM round trip of walk at
  /// beyond-LLC sizes; on a 128 MiB slab, distances from 24 to 160 and
  /// waves from 1024 to 4096 words measured within run-to-run noise of
  /// this choice.
  static constexpr std::uint32_t kPrefetchWords = 48;

  /// Highest candidate lane the lean commit accepts: the new load l+1
  /// must stay strictly below the 255 promotion threshold, and lane 255
  /// means the real load lives in the overflow side-table — both route
  /// that ball through the exact step.
  static constexpr std::uint8_t kFastLoadMax = 253;

  /// True when the kernel may place on this state: compact layout (the
  /// 8-bit slab is the vector operand), uniform unit capacities (the lean
  /// commit maintains no per-class metrics), and an engaged lookahead
  /// (the engine-exclusivity promise that licenses drawing words ahead).
  [[nodiscard]] static bool eligible(const BinState& state,
                                     const ProbeLookahead& lookahead) noexcept {
    return state.layout() == StateLayout::kCompact &&
           state.capacities().empty() && lookahead.enabled();
  }

  /// Place `count` one-choice balls (1 word each). `probes` is the rule's
  /// probe counter; `out`, when non-null, receives each ball's bin.
  void place_one_choice(BinState& state, std::uint64_t count,
                        ProbeLookahead& lookahead, rng::Engine& gen,
                        std::uint64_t& probes, std::uint32_t* out);

  /// Place `count` greedy[2] balls (2 words + 1 per tie).
  void place_greedy2(BinState& state, std::uint64_t count,
                     ProbeLookahead& lookahead, rng::Engine& gen,
                     std::uint64_t& probes, std::uint32_t* out);

  /// Place `count` left[2] balls (exactly 2 words each; group 0 is
  /// [0, n/2), group 1 is [n/2, n), matching LeftDRule::group_range).
  void place_left2(BinState& state, std::uint64_t count,
                   ProbeLookahead& lookahead, rng::Engine& gen,
                   std::uint64_t& probes, std::uint32_t* out);

  /// Kernel-path place_batch calls — core.batch.batches.
  [[nodiscard]] std::uint64_t batches() const noexcept { return batches_; }
  /// Waves processed (fast or fallback) — core.batch.waves.
  [[nodiscard]] std::uint64_t waves() const noexcept { return waves_; }
  /// Balls placed by the wave path (the walk and the exact steps between
  /// its runs) — core.batch.fast_balls.
  [[nodiscard]] std::uint64_t fast_balls() const noexcept { return fast_balls_; }
  /// The subset of fast_balls the walk declined and the driver placed
  /// with the exact one-ball step (a candidate lane above kFastLoadMax,
  /// or a new top histogram level) — core.batch.exact_balls.
  [[nodiscard]] std::uint64_t exact_balls() const noexcept { return exact_balls_; }
  /// Balls replayed through the exact scalar path (a wave holding a
  /// Lemire rejection candidate) — core.batch.fallback_balls.
  [[nodiscard]] std::uint64_t fallback_balls() const noexcept {
    return fallback_balls_;
  }

 private:
  void ensure_scratch();

  /// The wave driver: fill, map, prefetch, walk and exact steps,
  /// rejection replay, residue hand-back. `Family` is one of the kernel's
  /// three families (batch_kernel.cpp).
  template <class Family>
  void place(const Family& family, BinState& state, std::uint64_t count,
             ProbeLookahead& lookahead, rng::Engine& gen, std::uint64_t& probes,
             std::uint32_t* out);

  std::vector<std::uint64_t> words_;  // kWaveWords
  std::vector<std::uint32_t> bins_;   // kWaveWords + kPrefetchWords + 4

  std::uint64_t batches_ = 0;
  std::uint64_t waves_ = 0;
  std::uint64_t fast_balls_ = 0;
  std::uint64_t exact_balls_ = 0;
  std::uint64_t fallback_balls_ = 0;
};

}  // namespace bbb::core
