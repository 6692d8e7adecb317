#pragma once
/// \file bin_state.hpp
/// THE bin-load state of the library: n bins, each holding a count of
/// balls, plus the bookkeeping that makes every Section-2 metric
/// incremental per event — no full rescan, batch or dynamic alike.
///
/// This type unifies what used to be two states (the bare `LoadVector`
/// the batch protocols filled and the dyn layer's `DynState`): every
/// decision rule in core/protocols/ now streams balls into one `BinState`
/// via `PlacementRule::place_one`, and every consumer (batch adapter,
/// dynamic engine, tracer) reads the same O(1) metrics.
///
/// Balls carry integer *weights* (a chain of w jobs placed as one atomic
/// decision is `add_ball(bin, w)`), and bins carry integer *capacities*
/// c_i (a server twice as fast as its neighbor has twice the capacity).
/// Unit weights and uniform capacities — the paper's setting — are the
/// defaults and cost nothing extra.
///
/// Storage layouts (the giant-scale tier): the per-bin load array comes in
/// two interchangeable representations selected at construction:
///   * `StateLayout::kWide` (default) — one 32-bit word per bin plus the
///     nonempty-bin index that O(1) "serve a random busy queue" departures
///     need. Identical to the historical layout, bit for bit.
///   * `StateLayout::kCompact` — one 8-bit lane per bin; the rare bin whose
///     load reaches `kCompactLaneMax` (255) is *promoted* to a 32-bit
///     overflow side-table and demoted again when its load drops back
///     below. n = 2^30 bins fit in ~1 GiB instead of the wide layout's
///     ~12 GiB (loads + nonempty index). Right-sized for the m = O(n)
///     regimes giant runs live in; once the heaviest bins near load 255
///     the side-table dominates and wide is the better pick
///     (Protocol::preferred_layout encodes that cliff; sim, dyn and trace
///     runs pick their layout through it). Two API features are
///     unavailable:
///     `loads()` (borrow the wide vector; use `copy_loads()` or `load()`)
///     and `sample_nonempty` (no id index is maintained) throw
///     std::logic_error. Every metric — max/min/gap/Ψ/lnΦ/level counts,
///     weighted and capacitated forms — is maintained by the same
///     incremental code and is bit-identical to the wide layout
///     (property-tested in tests/core/bin_state_layout_test.cpp).
///
/// Notation: this is the paper's load vector l = (l_1, ..., l_n) after t
/// units of weight have been placed; `balls()` is t, `average()` is t/n
/// (the centering used by the potentials Ψ and Φ in metrics.hpp). With
/// capacities, C = sum c_i and the normalized load of bin i is l_i/c_i;
/// `norm_average()` is t/C. Incremental bookkeeping:
///   - level counts (number of bins at each load) give max/min/gap in
///     O(1 + w) per event, because one event moves one bin w levels (the
///     min/max rescans are bounded by the level distance moved, so the
///     cost stays O(1) amortized per unit of weight);
///   - S2 = sum l_i^2 gives Psi = S2 - t^2/n;
///   - per-capacity-class S2_c = sum_{c_i = c} l_i^2 gives the weighted
///     potential Psi_w = sum l_i^2/c_i - t^2/C in exact integer parts;
///   - per-class level counts give max/min of l_i/c_i in O(#classes);
///   - W = sum (1+eps)^{-l_i} gives ln Phi = ln W + (t/n + 2) ln(1+eps);
///   - the nonempty-bin count is read off level 0 in O(1); the wide
///     layout's nonempty-bin *index* additionally supports O(1) "serve a
///     uniformly random busy queue" departures (the supermarket service
///     event);
///   - a Walker alias table over the capacities gives O(1) probes
///     proportional to c_i (`sample_capacity_proportional`).
///
/// The mutators and `load()` are defined inline here — they are the
/// innermost statements of every protocol's hot loop, and keeping them
/// header-visible lets the probe loops compile into one placement kernel
/// (perfbench's `rule.place_one_ns.*` layers time that kernel).
///
/// Invariants (property-tested in tests/core/bin_state_test.cpp, in
/// tests/core/bin_state_layout_test.cpp for wide-vs-compact lockstep, and
/// against the naive metrics.hpp recomputation under random weighted
/// add/remove interleavings in tests/dyn/allocator_test.cpp):
///   * balls() == sum of load(i) over all bins whenever control is
///     outside add_ball/remove_ball;
///   * every incremental metric equals the batch recomputation from
///     core/metrics.hpp after any interleaving of add/remove;
///   * compact and wide layouts driven through the same event sequence
///     agree on load(i) and every metric at every step;
///   * clear() is indistinguishable from fresh construction.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bbb/rng/alias_table.hpp"
#include "bbb/rng/engine.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::core {

class BatchPlacer;

/// How BinState stores the per-bin load array. See the file comment.
enum class StateLayout : std::uint8_t {
  kWide,     ///< 32-bit loads + nonempty-bin index (historical default)
  kCompact,  ///< 8-bit lanes + 32-bit overflow side-table; ~1 byte per bin
};

/// The compact layout's lane slab: `size` zero-initialized bytes behind a
/// plain pointer. Every greedy[2] probe of a slab larger than the LLC is
/// a random DRAM access, and on 4 KiB pages each one also misses the TLB
/// and walks the page table. So slabs of at least kHugePageBytes are
/// allocated 2 MiB-aligned and advised MADV_HUGEPAGE *before* the zero
/// fill (pages touched before the advice stay 4 KiB). Only the whole-2 MiB
/// prefix is advised, so a slab just past a multiple of 2 MiB gains no
/// huge-page tail of RSS. The advice is best effort: a kernel with
/// transparent huge pages off declines it and the slab stays correct on
/// 4 KiB pages — hugepage_bytes() reports what was accepted. Smaller slabs
/// are a plain operator new.
class LaneSlab {
 public:
  static constexpr std::size_t kHugePageBytes = std::size_t{1} << 21;

  LaneSlab() noexcept = default;
  explicit LaneSlab(std::size_t size);
  LaneSlab(const LaneSlab& other);
  LaneSlab(LaneSlab&& other) noexcept;
  LaneSlab& operator=(LaneSlab other) noexcept;
  ~LaneSlab();

  [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] std::uint8_t* data() noexcept { return data_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Bytes of the slab the kernel accepted MADV_HUGEPAGE advice for.
  [[nodiscard]] std::size_t hugepage_bytes() const noexcept { return hugepage_bytes_; }

 private:
  /// Uninitialized storage for `size` bytes (advised when huge).
  void allocate(std::size_t size);

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t hugepage_bytes_ = 0;
};

/// Canonical spelling ("wide" / "compact") for describe() lines and JSON
/// records.
[[nodiscard]] std::string_view to_string(StateLayout layout) noexcept;

/// Bin loads plus incremental metrics. Mutators are O(1) amortized per
/// unit of weight moved; metric reads are O(1) (normalized max/min/gap:
/// O(#distinct capacities)).
class BinState {
 public:
  /// Loads below this stay in a compact layout's 8-bit lane; a bin whose
  /// load reaches it is promoted to the 32-bit overflow side-table (and
  /// demoted when it drops back below).
  static constexpr std::uint32_t kCompactLaneMax = 255;

  /// Uniform-capacity state (the paper's setting: every c_i = 1).
  /// \param n number of bins. \throws std::invalid_argument if n == 0.
  explicit BinState(std::uint32_t n, StateLayout layout = StateLayout::kWide);

  /// Heterogeneous-capacity state: bin i has capacity capacities[i] >= 1.
  /// \throws std::invalid_argument if empty or any capacity is 0.
  explicit BinState(std::vector<std::uint32_t> capacities,
                    StateLayout layout = StateLayout::kWide);

  [[nodiscard]] StateLayout layout() const noexcept { return layout_; }

  /// Place one unit ball into `bin`, updating every derived metric.
  void add_ball(std::uint32_t bin) { add_ball(bin, 1); }

  /// Place one ball of integer weight `weight` into `bin` as a single
  /// atomic event (the whole chain lands together).
  /// \throws std::invalid_argument if weight == 0 or the bin load would
  ///         overflow 32 bits.
  void add_ball(std::uint32_t bin, std::uint32_t weight) {
    if (weight == 0) throw_zero_weight("add_ball");
    const std::uint32_t l = load(bin);
    if (l > std::numeric_limits<std::uint32_t>::max() - weight) {
      throw_add_overflow(bin);
    }
    const std::uint32_t nl = l + weight;
    store_load(bin, nl);
    balls_ += weight;

    levels_.move_up(l, nl);
    // (l+w)^2 - l^2 = (2l + w) w, exact in 64 bits while S2 itself fits.
    const std::uint64_t sq_delta =
        (2ULL * l + weight) * static_cast<std::uint64_t>(weight);
    sum_sq_ += sq_delta;
    phi_weight_ += pow_neg(nl) - pow_neg(l);
    if (!classes_.empty()) {
      CapacityClass& cls = classes_[class_of_[bin]];
      cls.levels.move_up(l, nl);
      cls.sum_sq += sq_delta;
    }

    if (l == 0 && layout_ == StateLayout::kWide) {
      nonempty_pos_[bin] = static_cast<std::uint32_t>(nonempty_.size());
      nonempty_.push_back(bin);
    }
  }

  /// Remove one unit ball from `bin`. \throws std::invalid_argument if empty.
  void remove_ball(std::uint32_t bin) { remove_ball(bin, 1); }

  /// Remove `weight` units from `bin` as one event.
  /// \throws std::invalid_argument if weight == 0 or weight > load(bin).
  void remove_ball(std::uint32_t bin, std::uint32_t weight) {
    if (weight == 0) throw_zero_weight("remove_ball");
    const std::uint32_t l = load(bin);
    if (l < weight) throw_remove_underflow(bin, l, weight);
    const std::uint32_t nl = l - weight;
    store_load(bin, nl);
    balls_ -= weight;

    levels_.move_down(l, nl);
    // l^2 - (l-w)^2 = (2l - w) w.
    const std::uint64_t sq_delta =
        (2ULL * l - weight) * static_cast<std::uint64_t>(weight);
    sum_sq_ -= sq_delta;
    phi_weight_ += pow_neg(nl) - pow_neg(l);
    if (!classes_.empty()) {
      CapacityClass& cls = classes_[class_of_[bin]];
      cls.levels.move_down(l, nl);
      cls.sum_sq -= sq_delta;
    }

    if (nl == 0 && layout_ == StateLayout::kWide) {
      const std::uint32_t pos = nonempty_pos_[bin];
      const std::uint32_t last = nonempty_.back();
      nonempty_[pos] = last;
      nonempty_pos_[last] = pos;
      nonempty_.pop_back();
    }
  }

  [[nodiscard]] std::uint32_t load(std::uint32_t bin) const noexcept {
    if (layout_ == StateLayout::kWide) return loads_[bin];
    const std::uint8_t lane = lanes_[bin];
    return lane < kCompactLaneMax ? lane : overflow_load(bin);
  }

  /// Hint the CPU to pull bin `bin`'s load slot (and, in the wide layout,
  /// its nonempty-index slot) into cache. The probe lookahead in
  /// core/probe.hpp issues this for upcoming candidates so the d random
  /// reads per ball overlap instead of serializing on DRAM.
  void prefetch(std::uint32_t bin) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (layout_ == StateLayout::kWide) {
      __builtin_prefetch(loads_.data() + bin, 1, 3);
      __builtin_prefetch(nonempty_pos_.data() + bin, 1, 3);
    } else {
      __builtin_prefetch(lanes_.data() + bin, 1, 3);
    }
#else
    (void)bin;
#endif
  }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  /// Total weight in the system (== sum of loads; unit balls each count 1).
  [[nodiscard]] std::uint64_t balls() const noexcept { return balls_; }

  /// Average load balls/n.
  [[nodiscard]] double average() const noexcept {
    return static_cast<double>(balls_) / static_cast<double>(n_);
  }

  /// Borrow the wide layout's load vector (zero-copy).
  /// \throws std::logic_error in the compact layout — the 32-bit vector
  ///         does not exist there; use copy_loads() or load() instead.
  [[nodiscard]] const std::vector<std::uint32_t>& loads() const;

  /// Materialize the loads as a fresh 32-bit vector; works in any layout.
  /// O(n) — snapshot/test use, not hot paths.
  [[nodiscard]] std::vector<std::uint32_t> copy_loads() const;

  [[nodiscard]] std::uint32_t max_load() const noexcept { return levels_.max; }
  [[nodiscard]] std::uint32_t min_load() const noexcept { return levels_.min; }
  [[nodiscard]] std::uint32_t gap() const noexcept { return levels_.max - levels_.min; }

  /// Quadratic potential Psi = sum (l_i - t/n)^2 = S2 - t^2/n.
  [[nodiscard]] double psi() const noexcept;

  /// ln Phi with the paper's eps = 1/200, maintained incrementally.
  [[nodiscard]] double log_phi() const noexcept;

  // -- raw potential parts (for merging partitioned states) ----------------

  /// The exact integer part S2 = sum l_i^2 of psi(). A state partitioned
  /// across shards merges as sum_s S2_s - t^2/n — bit-identical to the
  /// unpartitioned psi() (the shard engine's merged reads rely on this).
  [[nodiscard]] std::uint64_t sum_squares() const noexcept { return sum_sq_; }

  /// The raw potential weight W = sum (1+eps)^{-l_i} behind log_phi();
  /// additive across a bin partition the same way.
  [[nodiscard]] double phi_weight() const noexcept { return phi_weight_; }

  // -- capacities ----------------------------------------------------------

  /// True when every bin has the same capacity (probing proportional to
  /// capacity degenerates to uniform). The default constructor's state is
  /// always uniform.
  [[nodiscard]] bool uniform_capacity() const noexcept { return classes_.size() <= 1; }

  /// Capacity of `bin` (1 for the uniform default constructor).
  [[nodiscard]] std::uint32_t capacity(std::uint32_t bin) const noexcept {
    return capacities_.empty() ? 1 : capacities_[bin];
  }

  /// Per-bin capacities; empty when constructed uniform (all c_i = 1).
  [[nodiscard]] const std::vector<std::uint32_t>& capacities() const noexcept {
    return capacities_;
  }

  /// C = sum c_i (== n for the uniform default).
  [[nodiscard]] std::uint64_t total_capacity() const noexcept { return total_capacity_; }

  /// A random bin drawn proportionally to capacity: P(i) = c_i / C.
  /// Uniform capacities use one `uniform_below` draw (bit-for-bit the
  /// classic uniform probe); heterogeneous capacities use the O(1) Walker
  /// alias table built at construction.
  [[nodiscard]] std::uint32_t sample_capacity_proportional(rng::Engine& gen) const;

  // -- capacity-normalized metrics -----------------------------------------

  /// Normalized average t/C — the target every l_i/c_i converges to under
  /// capacity-proportional placement.
  [[nodiscard]] double norm_average() const noexcept {
    return static_cast<double>(balls_) / static_cast<double>(total_capacity_);
  }

  /// max_i l_i/c_i. O(#distinct capacities) per read.
  [[nodiscard]] double max_norm_load() const noexcept;
  /// min_i l_i/c_i. O(#distinct capacities) per read.
  [[nodiscard]] double min_norm_load() const noexcept;
  /// max_i l_i/c_i - min_i l_i/c_i.
  [[nodiscard]] double norm_gap() const noexcept {
    return max_norm_load() - min_norm_load();
  }

  /// Capacity-weighted quadratic potential
  ///   Psi_w = sum c_i (l_i/c_i - t/C)^2 = sum l_i^2/c_i - t^2/C,
  /// the heterogeneous generalization of psi() (equal to it when every
  /// c_i = 1). Maintained from exact per-class integer sums.
  [[nodiscard]] double weighted_psi() const noexcept;

  // -- level / nonempty structure ------------------------------------------

  /// Number of bins with load >= k (suffix sum over level counts; O(max
  /// load), intended for snapshots, not per-event hot paths with large k).
  [[nodiscard]] std::uint32_t bins_with_load_at_least(std::uint32_t k) const noexcept;

  /// level_counts()[l] = number of bins with load exactly l. May carry
  /// trailing zero entries above max_load().
  [[nodiscard]] const std::vector<std::uint32_t>& level_counts() const noexcept {
    return levels_.count;
  }

  /// Bins with load > 0, read off level 0 in O(1) (any layout).
  [[nodiscard]] std::uint32_t nonempty_bins() const noexcept {
    return n_ - levels_.count[0];
  }

  /// A uniformly random bin among those with load > 0 — the supermarket
  /// model's "one busy server completes a job" event.
  /// \throws std::logic_error if every bin is empty, or in the compact
  ///         layout (which maintains no nonempty-bin id index).
  [[nodiscard]] std::uint32_t sample_nonempty(rng::Engine& gen) const;

  /// Reset to the all-empty state (loads, ball count, and every metric);
  /// capacities are part of the system, not the load, and are kept. A
  /// cleared state is indistinguishable from a freshly constructed one
  /// (property-tested in tests/core/bin_state_test.cpp).
  void clear() noexcept;

  // -- layout diagnostics ----------------------------------------------------

  /// Compact layout: bins promoted into the 32-bit overflow side-table
  /// (load reached kCompactLaneMax) — state.compact.promotions. Always 0
  /// in the wide layout. Reset by clear() like every other derived count.
  [[nodiscard]] std::uint64_t compact_promotions() const noexcept {
    return compact_promotions_;
  }
  /// Compact layout: promotions undone (load dropped back below the lane
  /// ceiling) — state.compact.demotions.
  [[nodiscard]] std::uint64_t compact_demotions() const noexcept {
    return compact_demotions_;
  }
  /// Compact layout: bytes of the lane slab backed by transparent huge
  /// pages (see LaneSlab) — core.state.hugepage_bytes. 0 for small slabs,
  /// the wide layout, or a kernel that declined the advice.
  [[nodiscard]] std::uint64_t hugepage_bytes() const noexcept {
    return lanes_.hugepage_bytes();
  }

  /// The compact lane slab — the batch kernel's vector operand (snapshot
  /// gathers and the saturation guard). Compact layout only.
  [[nodiscard]] const std::uint8_t* compact_lanes() const noexcept {
    return lanes_.data();
  }

  /// A batch checkout: the writable lane slab plus every counter the
  /// batch kernel's lean commit touches (core/batch_kernel.cpp). The
  /// commit walk stores through the 8-bit lane slab, and byte stores
  /// alias *everything* under TBAA — with the counters live in BinState
  /// members the compiler must reload data pointers, sizes, and
  /// accumulators from memory on every ball. A walk copies a checkout
  /// into locals, which live in registers, and writes them back on exit.
  /// Only the kernel can take one (batch_begin is private to it); while a
  /// checkout is live the BinState members are stale, so any exact-path
  /// call (add_ball, load) must come after batch_end.
  struct BatchMetrics {
    std::uint8_t* lanes;        // lanes_.data()
    std::uint32_t* count;       // levels_.count.data()
    std::uint32_t count_size;   // levels_.count.size()
    std::uint64_t balls;
    std::uint64_t sum_sq;
    double phi;
    const double* pow_tab;      // pow_neg_.data(), valid through lane 254
  };

 private:
  /// The batch placement kernel (core/batch_kernel.hpp) checks the lean
  /// commit's counters out and writes the lane slab directly.
  friend class BatchPlacer;

  /// Check the lean-commit counters out of the state. Also pre-extends
  /// the (1+eps)^{-l} cache through every load the fast path can produce
  /// (new load <= kCompactLaneMax - 1) so the commit indexes it
  /// guard-free; the cache is private and extends by the exact recurrence
  /// pow_neg_slow uses, so no observable value changes whether that
  /// happens here or lazily.
  [[nodiscard]] BatchMetrics batch_begin() {
    if (pow_neg_.size() < kCompactLaneMax) {
      (void)pow_neg_slow(kCompactLaneMax - 1);
    }
    return BatchMetrics{lanes_.data(),
                        levels_.count.data(),
                        static_cast<std::uint32_t>(levels_.count.size()),
                        balls_,
                        sum_sq_,
                        phi_weight_,
                        pow_neg_.data()};
  }

  /// Write a checkout back. count/count_size need no reconciliation (the
  /// lean commit never grows the histogram: a ball that needs a new level
  /// goes through add_ball), but min/max do: the lean commit does not
  /// track them per ball — they are re-derived here from histogram
  /// occupancy. A batch walk only adds balls, so min moves up or stays,
  /// and the scan down from the top of the histogram stops at or above
  /// the old max; both scans are bounded by the lane range.
  void batch_end(const BatchMetrics& m) noexcept {
    balls_ = m.balls;
    sum_sq_ = m.sum_sq;
    phi_weight_ = m.phi;
    while (levels_.count[levels_.min] == 0) ++levels_.min;
    auto hi = static_cast<std::uint32_t>(levels_.count.size()) - 1;
    while (levels_.count[hi] == 0) --hi;
    levels_.max = hi;
  }

  /// Histogram of bin loads for one group of bins, with incremental
  /// max/min. A move of one bin from level `from` to `to` rescans at most
  /// |to - from| levels, so cost is O(1) amortized per unit of weight.
  struct LevelTracker {
    std::vector<std::uint32_t> count;  // count[l] = #bins of the group at load l
    std::uint32_t max = 0;
    std::uint32_t min = 0;

    void reset(std::uint32_t bins) {
      count.assign(1, bins);
      max = 0;
      min = 0;
    }
    void move_up(std::uint32_t from, std::uint32_t to) {
      if (count.size() <= to) count.resize(static_cast<std::size_t>(to) + 1, 0);
      --count[from];
      ++count[to];
      if (to > max) max = to;
      // The moved bin was the last one at the minimum level: the next
      // occupied level is at most `to` (where this bin now sits).
      if (from == min && count[from] == 0) {
        while (count[min] == 0) ++min;
      }
    }
    void move_down(std::uint32_t from, std::uint32_t to) {
      --count[from];
      ++count[to];
      if (to < min) min = to;
      // Symmetric: the next occupied level going down is at least `to`.
      if (from == max && count[from] == 0) {
        while (count[max] == 0) --max;
      }
    }
  };

  /// Bins sharing one capacity value, tracked together so l_i/c_i extremes
  /// and the weighted potential stay incremental.
  struct CapacityClass {
    std::uint32_t capacity = 1;
    std::uint32_t bins = 0;
    LevelTracker levels;
    std::uint64_t sum_sq = 0;  // sum l_i^2 over this class
  };

  void init_capacity_classes();

  /// (1+eps)^{-l}: cached lookup inline, cache extension / std::pow spill
  /// out of line (one cold call per previously unseen level).
  [[nodiscard]] double pow_neg(std::uint32_t l) const {
    if (l < pow_neg_.size()) [[likely]] return pow_neg_[l];
    return pow_neg_slow(l);
  }
  [[nodiscard]] double pow_neg_slow(std::uint32_t l) const;

  /// Write the new load of `bin`. Wide: one store. Compact: lane store,
  /// promoting to / demoting from the overflow side-table at
  /// kCompactLaneMax (the cold side-table touch is out of line).
  void store_load(std::uint32_t bin, std::uint32_t nl) {
    if (layout_ == StateLayout::kWide) {
      loads_[bin] = nl;
      return;
    }
    if (nl < kCompactLaneMax) [[likely]] {
      if (lanes_[bin] == kCompactLaneMax) overflow_erase(bin);
      lanes_[bin] = static_cast<std::uint8_t>(nl);
    } else {
      lanes_[bin] = static_cast<std::uint8_t>(kCompactLaneMax);
      overflow_store(bin, nl);
    }
  }

  [[nodiscard]] std::uint32_t overflow_load(std::uint32_t bin) const noexcept;
  void overflow_store(std::uint32_t bin, std::uint32_t nl);
  void overflow_erase(std::uint32_t bin);

  [[noreturn]] static void throw_zero_weight(const char* fn);
  [[noreturn]] static void throw_add_overflow(std::uint32_t bin);
  [[noreturn]] static void throw_remove_underflow(std::uint32_t bin, std::uint32_t l,
                                                  std::uint32_t weight);

  std::uint32_t n_ = 0;
  StateLayout layout_ = StateLayout::kWide;
  std::vector<std::uint32_t> loads_;  // wide layout only
  LaneSlab lanes_;                    // compact layout only
  /// Compact layout: loads of the (rare) bins promoted past the 8-bit lane.
  std::unordered_map<std::uint32_t, std::uint32_t> overflow_;
  std::uint64_t balls_ = 0;
  LevelTracker levels_;  // all bins together: max/min/gap and tail counts
  std::uint64_t sum_sq_ = 0;  // S2 = sum l_i^2 (exact while it fits 64 bits)
  double phi_weight_;         // W = sum (1+eps)^{-l_i}
  mutable std::vector<double> pow_neg_;      // cache of (1+eps)^{-l}
  std::vector<std::uint32_t> nonempty_;      // wide: bin ids with load > 0
  std::vector<std::uint32_t> nonempty_pos_;  // wide: bin -> index in nonempty_

  std::vector<std::uint32_t> capacities_;  // empty = uniform c_i = 1
  std::uint64_t total_capacity_;
  std::vector<std::uint32_t> class_of_;  // bin -> index into classes_
  std::vector<CapacityClass> classes_;   // one entry per distinct capacity
  std::optional<rng::AliasTable> cap_sampler_;  // only when heterogeneous

  // Cold side-table traffic counters, appended last so the hot members
  // above keep their pre-instrumentation offsets (a mid-class insertion
  // measurably shifted the compact streaming path's cache-line layout).
  std::uint64_t compact_promotions_ = 0;  // side-table inserts (cold path)
  std::uint64_t compact_demotions_ = 0;   // side-table erases (cold path)
};

}  // namespace bbb::core
