#include "bbb/core/batch_kernel.hpp"

#include <algorithm>

#include "bbb/core/simd/batch_ops.hpp"

namespace bbb::core {

namespace {

/// Engine64 source chaining wave buffer → lookahead → engine: the exact
/// live path consumes precisely the words the fast path would have, in
/// the same FIFO order, then falls through to fresh draws.
class FifoSource {
 public:
  FifoSource(const std::uint64_t* words, std::uint32_t& pos, std::uint32_t fill,
             ProbeLookahead& lookahead, rng::Engine& gen) noexcept
      : words_(words), pos_(pos), fill_(fill), lookahead_(lookahead), gen_(gen) {}

  [[nodiscard]] std::uint64_t operator()() {
    return pos_ != fill_ ? words_[pos_++] : lookahead_.next(gen_);
  }

  static constexpr std::uint64_t min() noexcept { return rng::Engine::min(); }
  static constexpr std::uint64_t max() noexcept { return rng::Engine::max(); }

 private:
  const std::uint64_t* words_;
  std::uint32_t& pos_;
  std::uint32_t fill_;
  ProbeLookahead& lookahead_;
  rng::Engine& gen_;
};

/// Lemire rejection threshold for `bound`: a raw word is a rejection
/// candidate iff low64(word * bound) < threshold (2^64 mod bound; 0 for
/// powers of two, where uniform_below never rejects).
[[nodiscard]] std::uint64_t reject_threshold(std::uint32_t bound) noexcept {
  const auto b = static_cast<std::uint64_t>(bound);
  return (0 - b) % b;
}

/// Prefetch (for write) the lane of `bin`: BinState::prefetch's compact
/// arm, on the walk's local slab pointer.
void prefetch_lane(const std::uint8_t* lanes, std::uint32_t bin) noexcept {
  __builtin_prefetch(lanes + bin, 1, 3);
}

constexpr std::uint32_t kD = BatchPlacer::kPrefetchWords;

/// A walk's inputs and outputs behind one pointer: the checkout, the wave
/// (words, their bins, fill, first output slot or null), and the cursor.
struct Walk {
  BinState::BatchMetrics m;
  const std::uint64_t* words;
  const std::uint32_t* bins;
  std::uint32_t fill;
  std::uint32_t* out;
  std::uint32_t k = 0;
  std::uint32_t placed = 0;
};

/// A walk's register copy of its checkout, and the lean weight-1 commit:
/// add_ball minus every branch the walk discharged, replaying its exact
/// arithmetic (lnΦ in FP operation order, Σl² in integers; min/max are
/// re-derived at batch_end). Balls and Σl share one register.
class Lean {
 public:
  explicit Lean(const Walk& w) noexcept
      : lanes(w.m.lanes), count_(w.m.count), levels_(w.m.count_size),
        pow_(w.m.pow_tab), phi_(w.m.phi) {}

  /// True when a ball may commit lean: its highest candidate lane `top`
  /// is at most kFastLoadMax (a true load, and the new load stays below
  /// the 255 promotion), and the winner's lane + 1 is a histogram level.
  [[nodiscard]] bool fits(std::uint32_t top, std::uint32_t lane) const noexcept {
    return top <= BatchPlacer::kFastLoadMax && lane + 1 < levels_;
  }

  void add(std::uint32_t bin, std::uint32_t l) noexcept {
    lanes[bin] = static_cast<std::uint8_t>(l + 1);
    --count_[l];
    ++count_[l + 1];
    tally_ += kBall + l;
    phi_ += pow_[l + 1] - pow_[l];
  }

  /// Write the checkout and the cursor back to `w`.
  void finish(Walk& w, std::uint32_t k) const noexcept {
    const std::uint64_t balls = tally_ >> kBallShift;
    const std::uint64_t sum_l = tally_ & (kBall - 1);
    w.m.balls += balls;
    w.m.sum_sq += 2 * sum_l + balls;  // sum of (2l + w) w with w = 1
    w.m.phi = phi_;
    w.k = k;
    w.placed += static_cast<std::uint32_t>(balls);
  }

  std::uint8_t* const lanes;

 private:
  static constexpr int kBallShift = 24;
  static constexpr std::uint64_t kBall = std::uint64_t{1} << kBallShift;
  static_assert(std::uint64_t{BatchPlacer::kWaveWords} * BatchPlacer::kFastLoadMax < kBall,
                "one walk's sum of lanes must stay below the ball count's bits");

  std::uint32_t* const count_;
  const std::uint32_t levels_;
  const double* const pow_;
  std::uint64_t tally_ = 0;
  double phi_;
};

// -- the three families: Lemire streams, kProbes (probes and minimum words
// per ball), kSpan (most words one ball may need), a call-free walk, and an
// exact one-ball step. A walk commits balls while a ball's kSpan words are
// in the wave and returns just before the first ball that does not fit the
// lean commit; it stays out of line so its register allocation is its own.
// `step` places the ball at a FifoSource exactly as the rule's place_one
// does: a ball the walk declined, or each ball of a rejection wave.

/// Streams of a family whose every word maps into [0, n).
struct Uniform {
  simd::MapStream even;
  simd::MapStream odd;
  explicit Uniform(std::uint32_t n) : even{n, 0, reject_threshold(n)}, odd(even) {}
};

struct OneChoice : Uniform {
  static constexpr std::uint32_t kProbes = 1;
  static constexpr std::uint32_t kSpan = 1;
  using Uniform::Uniform;

  // One-choice reads no loads to decide: the commit reads the live lane
  // per ball, so duplicates within the wave are naturally serialized.
  template <bool kOut>
  [[gnu::noinline]] static void walk(Walk& w) {
    Lean lean(w);
    const std::uint32_t* bins = w.bins;
    std::uint32_t k = w.k;
    for (; k + kSpan <= w.fill; ++k) {
      prefetch_lane(lean.lanes, bins[k + kD]);
      const std::uint32_t bin = bins[k];
      const std::uint32_t l = lean.lanes[bin];
      if (!lean.fits(l, l)) [[unlikely]] break;
      lean.add(bin, l);
      if constexpr (kOut) w.out[k] = bin;
    }
    lean.finish(w, k);
  }

  std::uint32_t step(BinState& state, FifoSource& src, std::uint64_t& probes) const {
    const auto bin = static_cast<std::uint32_t>(rng::uniform_below(src, even.bound));
    ++probes;
    state.add_ball(bin);
    return bin;
  }
};

struct Greedy2 : Uniform {
  static constexpr std::uint32_t kProbes = 2;
  static constexpr std::uint32_t kSpan = 3;
  using Uniform::Uniform;

  // The walk reads the live lane slab, so an in-wave duplicate sees the
  // earlier ball's placement, as the scalar stream does. The winner is c1
  // if c2 is strictly less loaded, or on a tie when the tie word selects
  // c2 (uniform_below(gen, 2) in least_loaded_of). The cursor advance
  // (2 or 3 words) waits on the tie test, so the next ball's candidate
  // bins are preloaded for BOTH advances and blended once eq lands; the
  // preloads may read bins[fill + 1], which the driver zeroes. The bound
  // k + 3 <= fill keeps the tie word in the wave and implies placed <
  // quota (every ball takes >= 2 words, fill = res + 2 quota, res <= 2).
  template <bool kOut>
  [[gnu::noinline]] static void walk(Walk& w) {
    Lean lean(w);
    const std::uint64_t* words = w.words;
    const std::uint32_t* bins = w.bins;
    const std::uint32_t fill = w.fill;
    std::uint32_t* out = kOut ? w.out + w.placed : nullptr;
    std::uint32_t k = w.k;
    std::uint32_t b0 = bins[k];
    std::uint32_t b1 = bins[k + 1];
    while (k + kSpan <= fill) {
      const std::uint32_t l0 = lean.lanes[b0];
      const std::uint32_t l1 = lean.lanes[b1];
      const std::uint32_t eq = l0 == l1 ? 1u : 0u;
      const auto tb = static_cast<std::uint32_t>(~words[k + 2] >> 63);
      // sel is random data: the sign-bit subtraction keeps the select
      // arithmetic (the `<` spelling if-converts into a ~30%-taken
      // branch that mispredicts its way to ~5 cycles a ball).
      const std::uint32_t sel = ((l1 - l0) >> 31) | (eq & tb);
      const std::uint32_t bin = sel != 0 ? b1 : b0;
      const std::uint32_t lane = sel != 0 ? l1 : l0;
      if (!lean.fits(std::max(l0, l1), lane)) [[unlikely]] break;
      // The cursor advances 2 or 3 words a ball, so covering words
      // k + D .. k + D + 2 prefetches every word once or twice.
      prefetch_lane(lean.lanes, bins[k + kD]);
      prefetch_lane(lean.lanes, bins[k + kD + 1]);
      prefetch_lane(lean.lanes, bins[k + kD + 2]);
      const std::uint32_t nb2 = bins[k + 2];
      const std::uint32_t nb3 = bins[k + 3];
      const std::uint32_t nb4 = bins[k + 4];
      lean.add(bin, lane);
      if constexpr (kOut) *out++ = bin;
      k += 2 + eq;
      // eq is random data too: XOR-masked blends instead of ?: (which
      // GCC if-converts into a ~46%-taken branch at the loop tail).
      const std::uint32_t emask = 0u - eq;
      b0 = nb2 ^ ((nb2 ^ nb3) & emask);
      b1 = nb3 ^ ((nb3 ^ nb4) & emask);
    }
    lean.finish(w, k);
  }

  std::uint32_t step(BinState& state, FifoSource& src, std::uint64_t& probes) const {
    const std::uint32_t best = least_loaded_of(
        src, even.bound, 2, probes, [&state](std::uint32_t b) { return state.load(b); });
    state.add_ball(best);
    return best;
  }
};

/// LeftDRule::group_range with d = 2: group 0 = [0, n/2), group 1 =
/// [n/2, n). left[2] consumes exactly two words per ball (deterministic
/// tie-break), so within a wave the word at index i belongs to group
/// i % 2 — waves always start ball-aligned and never leave residue,
/// which is precisely map_words' even/odd stream split.
struct Left2 {
  static constexpr std::uint32_t kProbes = 2;
  static constexpr std::uint32_t kSpan = 2;
  simd::MapStream even;
  simd::MapStream odd;

  explicit Left2(std::uint32_t n)
      : even{n / 2, 0, reject_threshold(n / 2)},
        odd{n - n / 2, n / 2, reject_threshold(n - n / 2)} {}

  // Vöcking's always-go-left tie-break against the live slab: the right
  // candidate wins only on a strictly smaller load (sign-bit select, as
  // in the greedy[2] walk).
  template <bool kOut>
  [[gnu::noinline]] static void walk(Walk& w) {
    Lean lean(w);
    const std::uint32_t* bins = w.bins;
    std::uint32_t k = w.k;
    for (; k + kSpan <= w.fill; k += 2) {
      prefetch_lane(lean.lanes, bins[k + kD]);
      prefetch_lane(lean.lanes, bins[k + kD + 1]);
      const std::uint32_t b0 = bins[k];
      const std::uint32_t b1 = bins[k + 1];
      const std::uint32_t l0 = lean.lanes[b0];
      const std::uint32_t l1 = lean.lanes[b1];
      const std::uint32_t sel = (l1 - l0) >> 31;
      const std::uint32_t bin = sel != 0 ? b1 : b0;
      const std::uint32_t lane = sel != 0 ? l1 : l0;
      if (!lean.fits(std::max(l0, l1), lane)) [[unlikely]] break;
      lean.add(bin, lane);
      if constexpr (kOut) w.out[k / 2] = bin;
    }
    lean.finish(w, k);
  }

  // Word for word LeftDRule::do_place's uniform path: one draw per
  // group, strict `<` comparison.
  std::uint32_t step(BinState& state, FifoSource& src, std::uint64_t& probes) const {
    const auto c0 = static_cast<std::uint32_t>(rng::uniform_below(src, even.bound));
    const auto c1 =
        odd.base + static_cast<std::uint32_t>(rng::uniform_below(src, odd.bound));
    probes += 2;
    const std::uint32_t best = state.load(c1) < state.load(c0) ? c1 : c0;
    state.add_ball(best);
    return best;
  }
};

}  // namespace

void BatchPlacer::ensure_scratch() {
  if (!words_.empty()) return;
  words_.resize(kWaveWords);
  // The walks prefetch up to word k + kPrefetchWords + 2 while committing
  // word k, and greedy[2] preloads candidate bins up to fill + 1.
  bins_.resize(kWaveWords + kPrefetchWords + 4);
}

template <class Family>
void BatchPlacer::place(const Family& family, BinState& state, std::uint64_t count,
                        ProbeLookahead& lookahead, rng::Engine& gen,
                        std::uint64_t& probes, std::uint32_t* out) {
  if (count == 0) return;
  ensure_scratch();
  ++batches_;
  const std::uint8_t* lanes = state.compact_lanes();
  const simd::SimdOps& ops = simd::active_ops();
  std::uint64_t placed_total = 0;
  std::uint32_t res = 0;  // words_[0, res): drawn by a prior wave, unconsumed
  while (placed_total < count) {
    ++waves_;
    const std::uint32_t room = (kWaveWords - res) / Family::kProbes;
    const auto quota =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(count - placed_total, room));
    const std::uint32_t fill = res + Family::kProbes * quota;
    // Residue words carried over are remapped and re-screened with the
    // fresh ones (an unconsumed rejection candidate must still trip).
    lookahead.next_block(gen, words_.data() + res, fill - res);
    const bool reject =
        ops.map_words(words_.data(), fill, family.even, family.odd, bins_.data());
    bins_[fill] = bins_[fill + 1] = 0;  // valid targets for the walks' preloads
    // The lanes of the first kD words; the walk prefetches the rest.
    for (std::uint32_t i = 0; i < std::min(fill, kD); ++i) prefetch_lane(lanes, bins_[i]);
    Walk w{{}, words_.data(), bins_.data(), fill,
           out == nullptr ? nullptr : out + placed_total};
    FifoSource src(w.words, w.k, fill, lookahead, gen);
    const auto place_exact = [&] {
      const std::uint32_t bin = family.step(state, src, probes);
      if (w.out != nullptr) w.out[w.placed] = bin;
      ++w.placed;
    };
    if (!reject) {
      std::uint32_t exact = 0;
      for (;;) {
        w.m = state.batch_begin();
        if (w.out == nullptr) {
          Family::template walk<false>(w);
        } else {
          Family::template walk<true>(w);
        }
        state.batch_end(w.m);
        if (w.k + Family::kSpan > fill) break;  // out of words, not declined
        place_exact();
        ++exact;
      }
      probes += std::uint64_t{Family::kProbes} * (w.placed - exact);
      fast_balls_ += w.placed;
      exact_balls_ += exact;
    } else {
      // A rejection candidate shifts every later word's meaning: replay
      // the whole quota exactly over the same buffered words. (A walk out
      // of words is no fallback: its shortfall rolls into the next wave.)
      fallback_balls_ += quota;
      while (w.placed < quota) place_exact();
    }
    // Residue (greedy[2] only): fill - k <= 2. A zero-ball wave — quota 1
    // with fill 2 — leaves res = 2 and retries with a deeper buffer.
    res = fill - w.k;
    for (std::uint32_t i = 0; i < res; ++i) words_[i] = words_[w.k + i];
    placed_total += w.placed;
  }
  if (res != 0) lookahead.push_residue(words_.data(), res);
}

void BatchPlacer::place_one_choice(BinState& state, std::uint64_t count,
                                   ProbeLookahead& lookahead, rng::Engine& gen,
                                   std::uint64_t& probes, std::uint32_t* out) {
  place(OneChoice(state.n()), state, count, lookahead, gen, probes, out);
}

void BatchPlacer::place_greedy2(BinState& state, std::uint64_t count,
                                ProbeLookahead& lookahead, rng::Engine& gen,
                                std::uint64_t& probes, std::uint32_t* out) {
  place(Greedy2(state.n()), state, count, lookahead, gen, probes, out);
}

void BatchPlacer::place_left2(BinState& state, std::uint64_t count,
                              ProbeLookahead& lookahead, rng::Engine& gen,
                              std::uint64_t& probes, std::uint32_t* out) {
  place(Left2(state.n()), state, count, lookahead, gen, probes, out);
}

}  // namespace bbb::core
