#pragma once
/// \file xoshiro256.hpp
/// xoshiro256++ 1.0 (Blackman & Vigna 2019): the library's default engine.
///
/// 256 bits of state, period 2^256 - 1, excellent statistical quality
/// (passes BigCrush and PractRand), and roughly one rotate + two xors per
/// 64-bit output — ideal for the probe-heavy inner loops of balls-into-bins
/// protocols. Independent streams come from rng::SeedSequence
/// (streams.hpp).

#include <array>
#include <bit>
#include <cstdint>

namespace bbb::rng {

/// xoshiro256++ engine. Default uniform 64-bit source for all protocols.
class Xoshiro256PlusPlus {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 expansion of a single 64-bit seed, as recommended
  /// by the xoshiro authors (avoids low-entropy states; the all-zero state
  /// is unreachable this way).
  explicit Xoshiro256PlusPlus(std::uint64_t seed) noexcept;

  /// Construct from full 256-bit state. Must not be all zero.
  explicit Xoshiro256PlusPlus(const std::array<std::uint64_t, 4>& state) noexcept;

  /// Next uniform 64-bit word. Defined inline: one rotate + a handful of
  /// xors, called once per probe word from every inner loop in the
  /// library — an out-of-line definition would put a call/return on the
  /// hottest path there is.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

  friend bool operator==(const Xoshiro256PlusPlus&, const Xoshiro256PlusPlus&) = default;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// The engine type used throughout the library's protocol implementations.
using Engine = Xoshiro256PlusPlus;

}  // namespace bbb::rng
