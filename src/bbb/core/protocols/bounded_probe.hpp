#pragma once
/// \file bounded_probe.hpp
/// The one bounded-probe rule behind the paper's two protocols and their
/// variants: every ball samples bins until one has load <= an acceptance
/// bound, and is placed there. Adaptive (Figure 1, the paper's main
/// contribution) accepts load < i/n + 1 for the i-th ball; threshold
/// (Czumaj & Stemann 2001, Figure 2) accepts load < m/n + 1. Over integer
/// loads load < x + 1 <=> load <= ceil(x), so with a clock c counting
/// the balls before the next one, every family's bound is
///
///   bound(c) = ceil((c + 1) / n) + slack - 1        (= floor(c/n) + slack)
///
/// at one of five clocks (`BoundClock`):
///   * kPlaced — T, the balls placed so far: `adaptive[slack]`,
///     `adaptive-total[slack]` (the literal Figure 1 counter) and
///     `skewed-adaptive[s*100]`. Max load <= ceil(m/n) + 1 by
///     construction; Theorem 3.1: expected allocation time O(m);
///     Corollary 3.5: E[Phi] = O(n), E[Psi] = O(n) and max-min gap
///     O(log n) w.h.p. at every stage, versus threshold's polynomial gap
///     (Lemma 4.2). m never needs to be known.
///   * kNet — B, the balls present now: `adaptive-net[slack]`. Under
///     departures the ball index i is ambiguous (the paper never faces
///     this fork): T is monotone, so adaptive's bound goes vacuous under
///     sustained churn, while B keeps it tight forever. On arrivals-only
///     streams T = B and the spellings are bit-identical
///     (bench_dyn_churn measures the separation once balls leave).
///   * kFixed — m - 1 for a provisioned total m: `threshold[slack]`.
///     Theorem 4.1: allocation time m + O(m^{3/4} n^{1/4}) w.h.p. for
///     m >= n. The registry supplies an m hint under the dyn engine (n
///     when unknown), and departures can re-open capacity.
///   * kDoubling — G(T) - 1, where the guess G starts at `initial guess`
///     (0 = n) and doubles until it exceeds T: `doubling-threshold[guess]`,
///     the folklore *wrong* fix for threshold's known-m requirement. It
///     keeps O(m) time, but the bound tracks the current guess, nearly
///     2m/n, whenever m lands just past a doubling boundary
///     (bench_ablation_unknown_m measures the gap).
///   * kStale — delta * floor(T / delta), the placed count published every
///     delta placements: `stale-adaptive[delta]`, adaptive with the
///     broadcast counter of a distributed deployment. For delta <= n and
///     delta | n the run is bit-identical to fresh adaptive (the bound is
///     constant within a stage, so a counter lagging less than a stage
///     computes the same bound; tests/protocols/stale_adaptive_test.cpp,
///     bench_ablation_stale). delta > n is rejected: the stale bound could
///     lag a full stage, where the termination argument no longer holds.
///
/// Slack 1 is the paper's rule. Slack 0 (bound ceil((c + 1)/n) - 1, never
/// negative since c + 1 >= 1) demands a perfectly tight allocation at
/// coupon-collector cost, Theta(m log n) probes; larger slack trades
/// balance for fewer probes.
///
/// Probes are uniform bins, except for `skewed-adaptive[s*100]`, which
/// probes bins ~ Zipf(s) — a hash with a skewed range. The acceptance test
/// is distribution-free, so the max-load bound survives any skew; what
/// breaks is the allocation time (cold bins fill only through the biased
/// sampler; bench_ablation_skew measures the curve).
///
/// Termination. For every moving clock some bin is at or below the bound
/// (pigeonhole: the c or fewer balls present cannot fill all n bins past
/// floor(c/n)). A fixed bound cannot adapt: once every bin exceeds it, a
/// ball could never land, so each placement first checks
/// min_load() > bound in O(1) and throws std::logic_error instead of
/// spinning. A skew whose coldest bin is unreachable by the sampler is
/// rejected at construction (see the constructor).

#include <optional>

#include "bbb/core/rule.hpp"
#include "bbb/rng/zipf.hpp"

namespace bbb::core {

/// Which count feeds the acceptance bound (see the file comment).
enum class BoundClock : std::uint8_t { kPlaced, kNet, kFixed, kDoubling, kStale };

/// The parameters of one bounded-probe family.
struct BoundSpec {
  BoundClock clock = BoundClock::kPlaced;
  std::uint32_t slack = 1;
  /// m for kFixed, the initial guess for kDoubling (0 = n), delta for
  /// kStale; unused otherwise.
  std::uint64_t arg = 0;
  /// When set, probes draw bins ~ Zipf(s) instead of uniformly.
  std::optional<double> zipf_s = std::nullopt;
};

/// Streaming probe-until-accept rule with a clocked acceptance bound.
class BoundedProbeRule final : public PlacementRule {
 public:
  /// \param n bins; \param spec the family; \param name the spec-canonical
  /// name name() reports.
  /// \throws std::invalid_argument if n == 0; if kFixed has slack 0 with
  ///         m == 0; if kStale has delta == 0 or delta > n; if zipf_s < 0
  ///         or Zipf(s) gives the coldest bin a probability below 2^-53
  ///         (the step of the alias table's uniform double, so the bin
  ///         could never be probed and a ball could spin forever once the
  ///         hot bins pass the bound); or if the first bound exceeds
  ///         2^32 - 1 (no uint32 load can exceed it).
  BoundedProbeRule(std::uint32_t n, const BoundSpec& spec, std::string name);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t bound_n() const noexcept override { return n_; }

  /// The clock c the next ball's bound is evaluated at: T, B, m - 1,
  /// G(T) - 1 or delta * floor(T / delta).
  [[nodiscard]] std::uint64_t clock(const BinState& state) const noexcept {
    return clock_at(state.balls());
  }
  /// Acceptance bound the next ball will use (load <= bound accepted).
  [[nodiscard]] std::uint64_t accept_bound(const BinState& state) const noexcept {
    return bound_at(clock(state));
  }

 protected:
  /// \throws std::logic_error if every bin already exceeds the bound (only
  /// a fixed bound can get there).
  std::uint32_t do_place(BinState& state, std::uint32_t weight,
                         rng::Engine& gen) override;

 private:
  /// ceil((c + 1)/n) + slack - 1. kFixed with m = 0 has c = 2^64 - 1, and
  /// c + 1 wraps to 0: bound slack - 1 (slack >= 1 there).
  [[nodiscard]] std::uint64_t bound_at(std::uint64_t c) const noexcept {
    return ceil_div(c + 1, n_) + slack_ - 1;
  }
  /// The clock with `net` balls present.
  [[nodiscard]] std::uint64_t clock_at(std::uint64_t net) const noexcept;
  /// The doubling guess in force once T balls are placed.
  [[nodiscard]] std::uint64_t guess_at(std::uint64_t placed) const noexcept;
  /// Recompute the cached bound with `net` balls present, and the placed
  /// count at which it next moves (kNet: every ball, since departures
  /// move B).
  void refresh(std::uint64_t net) noexcept;

  std::uint32_t n_;
  BoundClock clock_;
  std::uint32_t slack_;
  std::uint64_t arg_;
  std::optional<rng::ZipfDist> zipf_;
  std::string name_;
  std::uint64_t guess_ = 0;  // kDoubling: the current guess G
  std::uint64_t bound_ = 0;
  std::uint64_t next_refresh_ = 0;
};

}  // namespace bbb::core
