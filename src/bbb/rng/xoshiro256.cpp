#include "bbb/rng/xoshiro256.hpp"

#include "bbb/rng/splitmix64.hpp"

namespace bbb::rng {

Xoshiro256PlusPlus::Xoshiro256PlusPlus(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm();
}

Xoshiro256PlusPlus::Xoshiro256PlusPlus(const std::array<std::uint64_t, 4>& state) noexcept
    : s_(state) {}

}  // namespace bbb::rng
