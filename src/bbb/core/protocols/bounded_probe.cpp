#include "bbb/core/protocols/bounded_probe.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "bbb/core/probe.hpp"

namespace bbb::core {

namespace {

std::optional<rng::ZipfDist> make_zipf(std::uint32_t n, std::optional<double> s,
                                       const std::string& name) {
  if (!s) return std::nullopt;
  rng::ZipfDist zipf(n, *s);
  // The alias table draws its coin from a double with step 2^-53; a bin
  // whose weight is below that (or underflowed to 0) is never probed.
  constexpr double kMinReachable = 0x1p-53;
  if (!(zipf.probability(n - 1) >= kMinReachable)) {
    throw std::invalid_argument("rule '" + name +
                                "': the Zipf skew gives the coldest bin a probability "
                                "below 2^-53, so it can never be probed");
  }
  return zipf;
}

}  // namespace

BoundedProbeRule::BoundedProbeRule(std::uint32_t n, const BoundSpec& spec,
                                   std::string name)
    : n_(n),
      clock_(spec.clock),
      slack_(spec.slack),
      arg_(spec.arg),
      zipf_(make_zipf(n, spec.zipf_s, name)),
      name_(std::move(name)) {
  if (n == 0) throw std::invalid_argument("rule '" + name_ + "': n must be positive");
  if (clock_ == BoundClock::kFixed && slack_ == 0 && arg_ == 0) {
    // m - 1 placed balls cannot fill all n bins to ceil(m/n), so slack 0
    // terminates for the first m balls — except for m == 0, where the
    // bound ceil(m/n) - 1 would underflow.
    throw std::invalid_argument("rule '" + name_ + "': slack 0 needs m > 0");
  }
  if (clock_ == BoundClock::kStale && (arg_ == 0 || arg_ > n)) {
    throw std::invalid_argument(
        "rule '" + name_ +
        "': delta must be in [1, n] (else the stale bound can lag more than one "
        "stage and termination is no longer guaranteed)");
  }
  if (clock_ == BoundClock::kDoubling) guess_ = arg_ == 0 ? n : arg_;
  refresh(0);
  if (bound_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("rule '" + name_ +
                                "': acceptance bound ceil((c + 1)/n) + slack - 1 must "
                                "be <= 2^32 - 1, got " +
                                std::to_string(bound_));
  }
}

std::uint64_t BoundedProbeRule::guess_at(std::uint64_t placed) const noexcept {
  std::uint64_t guess = guess_;
  while (placed >= guess) guess *= 2;
  return guess;
}

std::uint64_t BoundedProbeRule::clock_at(std::uint64_t net) const noexcept {
  const std::uint64_t placed = total_placed();
  switch (clock_) {
    case BoundClock::kPlaced:
      return placed;
    case BoundClock::kNet:
      return net;
    case BoundClock::kFixed:
      return arg_ - 1;
    case BoundClock::kDoubling:
      return guess_at(placed) - 1;
    case BoundClock::kStale:
      return placed / arg_ * arg_;
  }
  return placed;
}

void BoundedProbeRule::refresh(std::uint64_t net) noexcept {
  const std::uint64_t placed = total_placed();
  bound_ = bound_at(clock_at(net));
  switch (clock_) {
    case BoundClock::kPlaced:
      next_refresh_ = (placed / n_ + 1) * n_;
      break;
    case BoundClock::kNet:
      next_refresh_ = 0;
      break;
    case BoundClock::kFixed:
      next_refresh_ = std::numeric_limits<std::uint64_t>::max();
      break;
    case BoundClock::kDoubling:
      guess_ = guess_at(placed);
      next_refresh_ = guess_;
      break;
    case BoundClock::kStale:
      next_refresh_ = (placed / arg_ + 1) * arg_;
      break;
  }
}

std::uint32_t BoundedProbeRule::do_place(BinState& state, std::uint32_t /*weight*/,
                                         rng::Engine& gen) {
  if (total_placed() >= next_refresh_) refresh(state.balls());
  if (state.min_load() > bound_) {
    throw std::logic_error("rule '" + name_ +
                           "': every bin is above the acceptance bound " +
                           std::to_string(bound_));
  }
  const auto accept = [&state, bound = bound_](std::uint32_t b) {
    return state.load(b) <= bound;
  };
  const std::uint32_t bin =
      zipf_ ? probe_until(gen, probes_, *zipf_, accept)
            : probe_until(gen, probes_, UniformBin{state.n()}, accept);
  state.add_ball(bin);
  return bin;
}

}  // namespace bbb::core
