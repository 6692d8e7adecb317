#pragma once
/// \file probe.hpp
/// The probe loops the probing rules in the library share (probe-until-
/// accept over any bin draw, and the least-loaded-of-d scans), plus the
/// raw-word probe lookahead that makes them fast at giant n.
/// Since the single-streaming-core refactor there is exactly one copy of
/// each decision rule (core/protocols/), driven by both the batch adapter
/// and the dyn engine; these helpers fix the randomness-consumption order
/// that the bit-for-bit pins below depend on.
///
/// All helpers draw from the engine in a fixed order (one uniform_below
/// per probe, plus one per tie for the reservoir tie-break). Any change to
/// that order breaks the adaptive/threshold load pins at the bottom of
/// tests/rng/golden_test.cpp and the streaming-vs-batch pins in
/// tests/dyn/batch_equivalence_test.cpp — loudly.
///
/// ## Probe lookahead (the giant-scale hot-path trick)
///
/// At n >= 10^7 the load array no longer fits in cache, so the d random
/// reads per ball are DRAM misses; drawn and consumed one at a time they
/// serialize, and the placement loop runs at memory *latency* instead of
/// memory *bandwidth*. `ProbeLookahead` fixes that without changing a
/// single consumed random word: it buffers the engine's raw 64-bit output
/// stream a few dozen words ahead, and at refill time speculatively maps
/// each buffered word to the bin it will address if consumed as a
/// candidate probe (Lemire's multiply maps a word position-independently)
/// and issues a software prefetch for that bin's load slot. Consumption
/// stays strictly FIFO through `LookaheadSource`, so every uniform_below —
/// candidate, tie-break, or rejection retry — sees exactly the word it
/// would have seen drawing from the engine directly; tie-break words were
/// merely prefetched as a bogus bin (harmless). Allocation results are
/// bit-for-bit identical with the lookahead on or off.
///
/// The one observable difference: the engine is left *ahead* of where
/// straight-line consumption would leave it (buffered residue is
/// discarded). A driver must therefore only enable the lookahead while the
/// rule is the engine's sole consumer — `PlacementRule::set_engine_exclusive`
/// documents the contract; the batch adapter and tracer opt in, the dyn
/// engine (which interleaves workload draws on the same engine) does not.

#include <cstdint>
#include <cstring>

#include "bbb/rng/engine.hpp"

namespace bbb::core {

/// FIFO read-ahead over an engine's raw 64-bit stream with speculative
/// bin prefetching at refill. See the file comment for the contract.
class ProbeLookahead {
 public:
  /// Words buffered per refill — the prefetch distance. 64 words cover
  /// ~twenty greedy[2] balls, enough to hide DRAM latency behind the
  /// per-ball bookkeeping without thrashing L1.
  static constexpr std::uint32_t kCapacity = 64;

  /// Engage (or disengage) the read-ahead. Disengaging discards any
  /// undrained residue — those words were already drawn from the old
  /// engine, and serving them to a *different* engine later would make
  /// placements a function of the wrong seed. (Same observable effect as
  /// the documented "engine ends ahead of straight-line consumption".)
  void set_enabled(bool on) noexcept {
    if (!on) {
      discarded_words_ += fill_ - pos_;
      pos_ = fill_ = 0;
    }
    enabled_ = on;
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Buffer refills performed — ~one per kCapacity consumed words; the
  /// obs layer reports it as core.lookahead.refills.
  [[nodiscard]] std::uint64_t refills() const noexcept { return refills_; }
  /// Buffered words thrown away by disengaging (engine draws that never
  /// reached a uniform_below) — core.lookahead.discarded_words.
  [[nodiscard]] std::uint64_t discarded_words() const noexcept {
    return discarded_words_;
  }

  /// Next raw word: buffered residue first, then the live engine.
  template <rng::Engine64 Engine>
  [[nodiscard]] std::uint64_t next(Engine& gen) {
    return pos_ != fill_ ? buf_[pos_++] : gen();
  }

  /// Bulk form of `next`: exactly `count` words into `dst`, buffered
  /// residue first, then the live engine — the same word stream next()
  /// would deliver one call at a time. The fresh draws run on a local
  /// copy of the engine, written back once: `dst` and the engine's state
  /// words are both uint64 lvalues, so drawing through `gen` directly
  /// would oblige the compiler to reload and store all four state words
  /// around every `*dst` store. The local copy is what keeps the state in
  /// registers across the batch kernel's wave fill.
  template <rng::Engine64 Engine>
  void next_block(Engine& gen, std::uint64_t* dst, std::uint32_t count) {
    while (pos_ != fill_ && count != 0) {
      *dst++ = buf_[pos_++];
      --count;
    }
    if (count == 0) return;
    ++refills_;  // one bulk draw is one buffer-refill's worth of traffic
    Engine local = gen;
    for (; count != 0; --count) *dst++ = local();
    gen = local;
  }

  /// Hand back words the batch kernel (core/batch_kernel.hpp) drew ahead
  /// but did not consume (at most a partial ball's worth). They are
  /// served before anything still queued and before any fresh engine
  /// draw, so a place_one following a place_batch sees exactly the word a
  /// pure place_one stream would. Precondition: the words are the last
  /// `count` the kernel drew, so count plus the words still queued is at
  /// most kCapacity — when the queue is non-empty the kernel's last draw
  /// came wholly out of it, residue included.
  void push_residue(const std::uint64_t* words, std::uint32_t count) noexcept {
    const std::uint32_t queued = fill_ - pos_;
    std::memmove(buf_ + count, buf_ + pos_, queued * sizeof(std::uint64_t));
    std::memcpy(buf_, words, count * sizeof(std::uint64_t));
    pos_ = 0;
    fill_ = count + queued;
  }

  /// Ensure at least `need` words are buffered (no-op when disabled or
  /// already full enough); newly drawn words are reported to
  /// `prefetch(offset, word)` where `offset` counts from the front of the
  /// queue — rules with positional word meaning (left[d]'s per-group
  /// draws) recover the probe phase as offset % d.
  template <rng::Engine64 Engine, typename PrefetchFn>
  void top_up(Engine& gen, std::uint32_t need, PrefetchFn&& prefetch) {
    if (need > kCapacity) need = kCapacity;  // d > 32: best effort, still FIFO
    if (!enabled_ || fill_ - pos_ >= need) return;
    ++refills_;  // cold: reached once per ~kCapacity consumed words
    const std::uint32_t residue = fill_ - pos_;
    for (std::uint32_t k = 0; k < residue; ++k) buf_[k] = buf_[pos_ + k];
    pos_ = 0;
    fill_ = residue;
    while (fill_ < kCapacity) {
      const std::uint64_t word = gen();
      prefetch(fill_, word);
      buf_[fill_++] = word;
    }
  }

 private:
  std::uint64_t buf_[kCapacity];
  std::uint32_t pos_ = 0;
  std::uint32_t fill_ = 0;
  bool enabled_ = false;
  // Cold counters appended after the hot members (buf_/pos_/fill_ keep
  // their pre-instrumentation offsets; refills_ is touched once per
  // ~kCapacity consumed words, discarded_words_ only on disengage).
  std::uint64_t refills_ = 0;
  std::uint64_t discarded_words_ = 0;
};

/// Engine64 adapter that drains a ProbeLookahead in FIFO order, falling
/// through to the underlying engine when the buffer is dry — the word
/// sequence is exactly the engine's, so passing this to uniform_below /
/// least_loaded_of reproduces direct-draw results bit for bit.
template <rng::Engine64 Engine>
class LookaheadSource {
 public:
  LookaheadSource(ProbeLookahead& lookahead, Engine& gen) noexcept
      : lookahead_(lookahead), gen_(gen) {}

  [[nodiscard]] std::uint64_t operator()() { return lookahead_.next(gen_); }

  static constexpr std::uint64_t min() noexcept { return Engine::min(); }
  static constexpr std::uint64_t max() noexcept { return Engine::max(); }

 private:
  ProbeLookahead& lookahead_;
  Engine& gen_;
};

/// The bin a raw 64-bit word maps to under Lemire's multiply-shift for
/// bound `n` — rng::lemire_map (the same mapping uniform_below consumes,
/// one shared definition so prefetch targets cannot drift from consumed
/// values), narrowed to a bin index.
[[nodiscard]] inline std::uint32_t lemire_map(std::uint64_t word,
                                              std::uint32_t n) noexcept {
  return static_cast<std::uint32_t>(rng::lemire_map(word, n));
}

/// The uniform probe draw: one uniform_below(n) per sample.
struct UniformBin {
  std::uint32_t n;

  template <rng::Engine64 Engine>
  [[nodiscard]] std::uint32_t operator()(Engine& gen) const {
    return static_cast<std::uint32_t>(rng::uniform_below(gen, n));
  }
};

/// Sample bins via `draw(gen)` (UniformBin, or a skewed sampler) until
/// `accept(bin)` holds; returns the accepted bin and adds one to `probes`
/// per sample. The caller guarantees some bin is acceptable (every
/// bounded-probe termination argument lives at the call site).
template <rng::Engine64 Engine, typename DrawFn, typename AcceptFn>
std::uint32_t probe_until(Engine& gen, std::uint64_t& probes, DrawFn&& draw,
                          AcceptFn&& accept) {
  for (;;) {
    const std::uint32_t bin = draw(gen);
    ++probes;
    if (accept(bin)) return bin;
  }
}

/// Exact comparison of normalized loads l_a/c_a vs l_b/c_b by
/// cross-multiplication: both operands are uint32, so the uint64 products
/// cannot overflow and no floating-point tie ambiguity enters the
/// tie-break randomness stream.
[[nodiscard]] inline bool norm_load_less(std::uint32_t la, std::uint32_t ca,
                                         std::uint32_t lb, std::uint32_t cb) noexcept {
  return static_cast<std::uint64_t>(la) * cb < static_cast<std::uint64_t>(lb) * ca;
}

/// Capacity-proportional greedy[d] candidate scan: d candidates drawn by
/// `draw(gen)` (an alias-table capacity sampler), the least *normalized*
/// load l/c wins, ties (equal l/c, cross-multiplied exactly) broken
/// uniformly at random reservoir-style — the same randomness-consumption
/// shape as `least_loaded_of`. Adds exactly d to `probes`.
template <rng::Engine64 Engine, typename DrawFn, typename LoadFn, typename CapFn>
std::uint32_t least_norm_loaded_of(Engine& gen, std::uint32_t d, std::uint64_t& probes,
                                   DrawFn&& draw, LoadFn&& load, CapFn&& cap) {
  std::uint32_t best = draw(gen);
  std::uint32_t best_load = load(best);
  std::uint32_t best_cap = cap(best);
  std::uint32_t ties = 1;  // candidates seen with the current best l/c
  for (std::uint32_t j = 1; j < d; ++j) {
    const std::uint32_t c = draw(gen);
    const std::uint32_t l = load(c);
    const std::uint32_t cc = cap(c);
    if (norm_load_less(l, cc, best_load, best_cap)) {
      best = c;
      best_load = l;
      best_cap = cc;
      ties = 1;
    } else if (!norm_load_less(best_load, best_cap, l, cc)) {
      ++ties;
      if (rng::uniform_below(gen, ties) == 0) {
        best = c;
        best_load = l;
        best_cap = cc;
      }
    }
  }
  probes += d;
  return best;
}

/// greedy[d] candidate scan: d uniform candidates with replacement, the
/// least loaded wins, ties broken uniformly at random among the tied
/// candidates (reservoir style — one extra draw per tie). Adds exactly d
/// to `probes`.
template <rng::Engine64 Engine, typename LoadFn>
std::uint32_t least_loaded_of(Engine& gen, std::uint32_t n, std::uint32_t d,
                              std::uint64_t& probes, LoadFn&& load) {
  if (d == 2) {
    // The two-choice fast path: both candidates drawn before either load
    // is read (the loads then miss DRAM in parallel), and the min-select
    // reduced to one equality branch. Word-for-word the same randomness
    // as the generic loop below: c0, c1, then one tie-break draw iff the
    // loads are equal.
    const auto c0 = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
    const auto c1 = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
    const std::uint32_t l0 = load(c0);
    const std::uint32_t l1 = load(c1);
    probes += 2;
    if (l0 != l1) return l1 < l0 ? c1 : c0;
    return rng::uniform_below(gen, 2) == 0 ? c1 : c0;
  }
  auto best = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
  std::uint32_t best_load = load(best);
  std::uint32_t ties = 1;  // candidates seen with the current best load
  for (std::uint32_t j = 1; j < d; ++j) {
    const auto c = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
    const std::uint32_t l = load(c);
    if (l < best_load) {
      best = c;
      best_load = l;
      ties = 1;
    } else if (l == best_load) {
      ++ties;
      if (rng::uniform_below(gen, ties) == 0) best = c;
    }
  }
  probes += d;
  return best;
}

}  // namespace bbb::core
