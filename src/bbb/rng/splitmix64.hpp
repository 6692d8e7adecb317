#pragma once
/// \file splitmix64.hpp
/// SplitMix64: a tiny, fast, well-scrambled 64-bit generator.
///
/// SplitMix64 (Steele, Lea, Flood 2014) advances a 64-bit counter by a fixed
/// odd constant and scrambles it with a variant of the MurmurHash3 finalizer.
/// It passes BigCrush on its own, but its primary role in this library is
/// (a) seeding the larger-state engine (xoshiro256++) so that a single
/// 64-bit user seed expands into full-entropy state, and (b) deriving
/// statistically independent child seeds for parallel replicate streams.

#include <cstdint>

namespace bbb::rng {

/// One scramble step of SplitMix64: maps any 64-bit value to a well-mixed
/// 64-bit value. This is a bijection, so distinct inputs give distinct
/// outputs. Useful as a cheap stateless hash for seed derivation.
[[nodiscard]] std::uint64_t splitmix64_scramble(std::uint64_t x) noexcept;

/// SplitMix64 engine. Satisfies the Engine64 shape used across bbb::rng:
/// `result_type operator()()` returning uniform 64-bit words.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed. Every seed yields a full-period
  /// (2^64) sequence; sequences from different seeds are shifted copies of
  /// one global sequence, so for *independent* streams prefer
  /// rng::derive_seed + a larger-state engine.
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next uniform 64-bit word.
  result_type operator()() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Current internal counter (useful for checkpointing).
  [[nodiscard]] constexpr std::uint64_t state() const noexcept { return state_; }

  friend constexpr bool operator==(const SplitMix64&, const SplitMix64&) = default;

 private:
  std::uint64_t state_;
};

}  // namespace bbb::rng
