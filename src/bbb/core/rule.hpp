#pragma once
/// \file rule.hpp
/// The single streaming core every protocol in the library is expressed
/// in: a `PlacementRule` places one ball at a time into a shared
/// `BinState` (`place_one`), carrying only its *rule-local* state (memory
/// cache, threshold phase, recorded choices, cuckoo residents). One driver,
/// `StreamingAllocator`, pairs one rule with one BinState and serves both
/// kinds of execution:
///
///   * batch — `run_batch(m)` places m fresh balls through the rule's one
///     batch hook (`place_batch(m)` + `finalize` for every rule but
///     batched[k], whose wide form is the LW rounds); every `Protocol::run`
///     and every sim replicate is this call;
///   * dynamic — `place()` / `remove()` so the dyn engine can interleave
///     departures.
///
/// Contract of `place_one`:
///   * places exactly one ball of the given integer weight (state.balls()
///     grows by the weight), except for rules that can fail an insertion
///     (cuckoo exhausting its eviction budget) — those leave the net count
///     unchanged and record the failure in `completed()`;
///   * draws randomness only through `gen`, in a deterministic order —
///     the batch-equivalence suite (tests/dyn/batch_equivalence_test.cpp)
///     pins streaming ≡ batch bit-for-bit for every rule with
///     `batch_equivalent() == true`;
///   * counts every random bin choice in `probes()` (the paper's
///     allocation time).
///
/// Two self-describing traits keep the drivers honest:
///   * `batch_equivalent()` — false for rules whose batch form is not the
///     plain place_one loop: batched (round-synchronous LW rounds on a wide
///     state) and self-balancing (post-placement balancing sweeps in
///     `finalize`);
///   * `supports_weights()` — true for rules that can commit a whole
///     weight-w chain to one bin as a single atomic decision (one-choice,
///     greedy[d], left[d]). place_one with weight > 1 throws for every
///     other rule; the drivers (the dyn engine, `place_weighted`) then
///     fall back to exploding the chain into unit placements — that
///     fallback lives here and in dyn/engine.cpp, not per-rule.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bbb/core/bin_state.hpp"
#include "bbb/core/protocol.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {

class BatchPlacer;
class ProbeLookahead;

/// Optional observer of a long batch run (sim heartbeats): called with the
/// number of balls placed so far after each chunk of up to
/// kBatchProgressStride balls. It must not touch the engine or the state.
using BatchProgress = std::function<void(std::uint64_t placed)>;
inline constexpr std::uint64_t kBatchProgressStride = std::uint64_t{1} << 16;

/// One streaming decision rule. Instances are single-run: a rule carries
/// placement state (probe counters, caches) and must not be shared across
/// BinStates or replicates.
class PlacementRule {
 public:
  virtual ~PlacementRule();

  /// Spec-canonical identifier that round-trips through make_rule /
  /// make_protocol, e.g. "adaptive", "greedy[2]", "memory[1,1]".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Place one unit ball; returns the bin the arriving ball landed in.
  std::uint32_t place_one(BinState& state, rng::Engine& gen) {
    return place_one(state, 1, gen);
  }

  /// Place one ball of integer weight `weight` as a single atomic decision
  /// (the whole chain lands in the returned bin). Inline: this is the hot
  /// loop's entry point, and the wrapper must not cost a cross-TU call.
  /// \throws std::invalid_argument if weight == 0, std::logic_error if
  ///         weight > 1 and the rule does not `supports_weights()` — the
  ///         caller must explode the chain into unit placements instead.
  std::uint32_t place_one(BinState& state, std::uint32_t weight, rng::Engine& gen) {
    if (weight == 0 || (weight > 1 && !supports_weights())) {
      throw_bad_weight(weight);
    }
    const std::uint32_t bin = do_place(state, weight, gen);
    total_placed_ += weight;
    return bin;
  }

  /// Place `count` unit balls as one call — placements, counters, and
  /// randomness consumption are bit-identical to `count` place_one calls
  /// (pinned in tests/core/batch_kernel_test.cpp). Rules with a batch
  /// kernel (one-choice, greedy[2], left[2] — see core/batch_kernel.hpp)
  /// place vector waves when the state is compact with uniform unit
  /// capacities and the engine-exclusivity promise is in force; every
  /// other rule/state combination runs the plain place_one loop. When
  /// `bins_out` is non-null it receives each ball's chosen bin (the
  /// caller provides room for `count` entries).
  void place_batch(BinState& state, std::uint64_t count, rng::Engine& gen,
                   std::uint32_t* bins_out = nullptr) {
    do_place_batch(state, count, gen, bins_out);
  }

  /// The batch form of `m` fresh arrivals — the one hook every batch
  /// driver calls once per run (Protocol::run, sim replicates). Default:
  /// place_batch(m) then finalize, with `progress` (when set) called
  /// between place_batch chunks of kBatchProgressStride balls; chunking
  /// never changes a placement. Only batched[k] overrides it (the LW
  /// rounds on a wide uniform state, see protocols/batched.hpp).
  void run_batch(BinState& state, std::uint64_t m, rng::Engine& gen,
                 const BatchProgress& progress = {}) {
    do_run_batch(state, m, gen, progress);
  }

  /// Driver promise that this rule is the engine's *only* consumer until
  /// further notice (a batch place_one loop, the tracer, a benchmark — but
  /// NOT the dyn engine, which draws workload events and victim picks from
  /// the same engine between placements). Rules with a probe lookahead
  /// (one-choice, greedy[d], left[d]) then read the raw word stream ahead
  /// and prefetch upcoming candidate bins; consumed words and therefore
  /// all allocation results stay bit-for-bit identical — only the engine's
  /// final position moves (see core/probe.hpp). Revoking the promise
  /// (`false`) discards any undrained read-ahead, so a driver that hands
  /// the rule a *different* engine afterwards never sees the old engine's
  /// buffered words. Default: ignored.
  virtual void set_engine_exclusive(bool exclusive) noexcept;

  /// Called by the drivers *after* `state.remove_ball(bin)` so rules with
  /// per-ball bookkeeping (cuckoo residents, recorded choice pairs) can
  /// drop one ball of that bin. Default: nothing to maintain.
  virtual void on_remove(BinState& state, std::uint32_t bin);

  /// Batch-only post-placement pass (self-balancing sweeps). Streaming
  /// drivers never call this. Default: nothing.
  virtual void finalize(BinState& state, rng::Engine& gen);

  /// True when `run_batch` is exactly the place_one loop, so an
  /// arrivals-only stream reproduces the batch result bit-for-bit.
  [[nodiscard]] virtual bool batch_equivalent() const noexcept { return true; }

  /// True for rules whose decision is independent of the arriving weight
  /// modulo the final add (one-choice, greedy[d], left[d]) and can
  /// therefore commit a weight-w chain to one bin atomically. Rules whose
  /// acceptance logic is per-unit (threshold bounds, cuckoo buckets, ...)
  /// return false and rely on the drivers' unit-explode fallback.
  [[nodiscard]] virtual bool supports_weights() const noexcept { return false; }

  /// Rules constructed against a specific n (group partitions, resident
  /// tables, fixed bounds, skewed samplers) report it so the drivers can
  /// reject a mismatched BinState instead of indexing out of bounds.
  /// 0 = the rule works with any n.
  [[nodiscard]] virtual std::uint32_t bound_n() const noexcept { return 0; }

  /// Random bin choices drawn so far — the paper's allocation time.
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }
  /// Total weight ever placed (monotone; a weight-w chain counts w; the
  /// BinState's balls() is the net count).
  [[nodiscard]] std::uint64_t total_placed() const noexcept { return total_placed_; }
  /// Post-placement ball moves (cuckoo kicks, self-balancing switches).
  [[nodiscard]] std::uint64_t reallocations() const noexcept { return reallocations_; }
  /// Synchronous rounds / balancing passes used (0 for one-shot rules).
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// False once any placement failed or a pass budget was exhausted.
  [[nodiscard]] bool completed() const noexcept { return completed_; }

  /// The rule's probe lookahead, for post-run counter harvesting
  /// (refills, discarded words); nullptr for rules without one. The obs
  /// layer reads it after the work — never on the placement path.
  [[nodiscard]] virtual const ProbeLookahead* lookahead() const noexcept {
    return nullptr;
  }

  /// The rule's batch placement kernel, for post-run counter harvesting
  /// (waves, fast/fallback balls); nullptr for rules without one.
  [[nodiscard]] virtual const BatchPlacer* batch_kernel() const noexcept;

 protected:
  /// The batch decision loop behind place_batch. The default is literally
  /// `count` place_one calls — so total_placed_ advances ball by ball,
  /// which rules whose acceptance bound reads it as the running ball index
  /// (doubling-threshold's guess clock, stale-adaptive's broadcast clock)
  /// depend on mid-batch. Kernel-capable rules override it to place waves
  /// when eligible; overrides must leave every counter (total_placed_
  /// included) and the consumed randomness exactly as the loop would.
  virtual void do_place_batch(BinState& state, std::uint64_t count,
                              rng::Engine& gen, std::uint32_t* bins_out);

  /// The batch hook behind run_batch (see there for the default).
  virtual void do_run_batch(BinState& state, std::uint64_t m, rng::Engine& gen,
                            const BatchProgress& progress);

  /// The decision rule proper: pick a bin, mutate `state` (adding the full
  /// `weight` there), count probes. Rules without `supports_weights()` are
  /// only ever called with weight == 1 (guarded in place_one).
  virtual std::uint32_t do_place(BinState& state, std::uint32_t weight,
                                 rng::Engine& gen) = 0;

  /// Cold throw path shared by the inline place_one wrapper.
  [[noreturn]] void throw_bad_weight(std::uint32_t weight) const;

  std::uint64_t probes_ = 0;
  std::uint64_t total_placed_ = 0;
  std::uint64_t reallocations_ = 0;
  std::uint64_t rounds_ = 0;
  bool completed_ = true;
};

/// One rule bound to one BinState — the one driver of the library.
/// Applications and the dyn engine stream through place() / remove();
/// batch runs (Protocol::run, sim replicates) call run_batch() once.
class StreamingAllocator {
 public:
  /// \throws std::invalid_argument if n == 0 (via BinState).
  StreamingAllocator(std::uint32_t n, std::unique_ptr<PlacementRule> rule);

  /// Adopt a pre-built (possibly heterogeneous-capacity) state.
  /// `name_prefix` is prepended to the rule name so capacitated specs
  /// round-trip (e.g. "capacities=1,2,4,8:greedy[2]").
  StreamingAllocator(BinState state, std::unique_ptr<PlacementRule> rule,
                     std::string name_prefix = "");

  [[nodiscard]] std::string name() const { return name_prefix_ + rule_->name(); }

  /// Allocate one unit ball; returns the chosen bin.
  std::uint32_t place(rng::Engine& gen) { return rule_->place_one(state_, gen); }

  /// Allocate `count` unit balls in one call — bit-identical to `count`
  /// place() calls, vectorized when the rule has a batch kernel and the
  /// state/exclusivity eligibility holds (see PlacementRule::place_batch).
  void place_batch(std::uint64_t count, rng::Engine& gen) {
    rule_->place_batch(state_, count, gen);
  }

  /// Forward the engine-exclusivity promise to the rule (see
  /// PlacementRule::set_engine_exclusive). Call only when nothing else
  /// draws from the engine between place() calls.
  void set_engine_exclusive(bool exclusive) noexcept {
    rule_->set_engine_exclusive(exclusive);
  }

  /// Run the rule's batch-only post-placement pass (self-balancing
  /// sweeps) — how a streaming driver reproduces `Protocol::run` exactly
  /// for rules whose batch form is the place loop plus finalize.
  void finalize(rng::Engine& gen) { rule_->finalize(state_, gen); }

  /// Place m fresh balls through the rule's batch hook
  /// (PlacementRule::run_batch): what `Protocol::run` and every sim
  /// replicate execute.
  void run_batch(std::uint64_t m, rng::Engine& gen, const BatchProgress& progress = {}) {
    rule_->run_batch(state_, m, gen, progress);
  }

  /// The state and the rule's counters as an AllocationResult. O(n): it
  /// copies the loads (either layout).
  [[nodiscard]] AllocationResult result() const;

  /// Allocate one weight-w ball. Atomic (whole chain into the returned
  /// bin) when the rule supports weights; otherwise the centralized
  /// unit-explode fallback places w independent unit balls and returns the
  /// last bin chosen.
  std::uint32_t place_weighted(std::uint32_t weight, rng::Engine& gen);

  /// Process one departure from `bin`, keeping the rule's bookkeeping in
  /// step. \throws std::invalid_argument if the bin is empty.
  void remove(std::uint32_t bin) {
    state_.remove_ball(bin);
    rule_->on_remove(state_, bin);
  }

  [[nodiscard]] const BinState& state() const noexcept { return state_; }
  [[nodiscard]] const PlacementRule& rule() const noexcept { return *rule_; }
  [[nodiscard]] PlacementRule& rule() noexcept { return *rule_; }
  [[nodiscard]] std::uint64_t probes() const noexcept { return rule_->probes(); }
  /// Balls ever placed (monotone; state().balls() is the net count).
  [[nodiscard]] std::uint64_t total_placed() const noexcept {
    return rule_->total_placed();
  }
  /// Weighted chains the rule could not commit atomically, exploded into
  /// unit placements here — core.weighted.explode_fallbacks.
  [[nodiscard]] std::uint64_t explode_fallbacks() const noexcept {
    return explode_fallbacks_;
  }

 private:
  BinState state_;
  std::unique_ptr<PlacementRule> rule_;
  std::string name_prefix_;
  std::uint64_t explode_fallbacks_ = 0;
};

}  // namespace bbb::core
