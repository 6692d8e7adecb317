#pragma once
/// \file protocol.hpp
/// The result record every batch run produces, and `ceil_div`. The batch
/// entry point itself, `Protocol` (one parsed spec: `run(m, n, gen)`
/// allocates m balls into n fresh bins), lives beside its factory in
/// core/protocols/registry.hpp; this header stays small because rule.hpp
/// includes it.
///
/// Notation (Section 2 of the paper): m balls, n bins, average load m/n;
/// `AllocationResult::probes` is the paper's *allocation time* — the total
/// number of random bin choices drawn, the cost measure of Theorems 3.1
/// and 4.1.
///
/// Invariants every run upholds (property-tested across all protocols in
/// tests/protocols/invariants_test.cpp):
///   * loads.size() == n and sum(loads) == balls;
///   * balls == m whenever completed is true;
///   * probes >= balls for probing protocols (each placement consumes at
///     least one random choice);
///   * identical (m, n, engine state) triples reproduce identical results.

#include <cstdint>
#include <vector>

namespace bbb::core {

/// Everything a single protocol execution produces.
struct AllocationResult {
  std::vector<std::uint32_t> loads;  ///< final load of each bin
  std::uint64_t balls = 0;           ///< balls successfully placed
  std::uint64_t probes = 0;          ///< random bin choices = "allocation time"
  std::uint64_t reallocations = 0;   ///< post-placement ball moves (CRS, cuckoo)
  std::uint64_t rounds = 0;          ///< synchronous rounds (parallel protocols)
  bool completed = true;             ///< false if a bound (rounds/kicks) was hit
};

/// ceil(m/n) in exact integer arithmetic — the quantity the paper's
/// thresholds compare against (`load < i/n + 1` over integers is
/// `load <= ceil(i/n)`). Formulated without the textbook `(m + n - 1) / n`,
/// which wraps for m near UINT64_MAX; exact over the full uint64 domain
/// (boundary-tested in tests/core/protocol_test.cpp).
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t m,
                                               std::uint32_t n) noexcept {
  return m / n + (m % n != 0 ? 1 : 0);
}

}  // namespace bbb::core
