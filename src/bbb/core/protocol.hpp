#pragma once
/// \file protocol.hpp
/// The batch-allocation interface all protocols implement, and the result
/// record every experiment consumes.
///
/// Two layers of API, both fed by the same streaming core (core/rule.hpp):
///  * streaming rules (`PlacementRule::place_one` places one ball into a
///    shared `BinState`) — what an application embeds and the dyn engine
///    drives;
///  * `Protocol` (this file) — type-erased batch interface over a spec
///    string: `run(m, n, gen)` allocates m balls into n fresh bins. There
///    are exactly two implementations, both built by `make_protocol`
///    (core/protocols/registry.hpp): the generic one, whose run() is
///    `make_streaming_allocator(spec, n, m)` + `run_batch(m)` over a wide
///    state, and `shard::ShardedProtocol` for `shards[t]:` specs.
///
/// Notation (Section 2 of the paper): m balls, n bins, average load m/n;
/// `AllocationResult::probes` is the paper's *allocation time* — the total
/// number of random bin choices drawn, the cost measure of Theorems 3.1
/// and 4.1.
///
/// Invariants every implementation upholds (property-tested across all
/// protocols in tests/protocols/invariants_test.cpp):
///   * loads.size() == n and sum(loads) == balls;
///   * balls == m whenever completed is true;
///   * probes >= balls for probing protocols (each placement consumes at
///     least one random choice);
///   * run() is const and state-free between calls — identical (m, n,
///     engine state) triples reproduce identical results.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bbb/rng/xoshiro256.hpp"

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

/// Abstract batch protocol. Implementations are immutable and reusable:
/// `run` owns no state between calls, so one instance can serve many
/// replicates concurrently (each with its own engine).
class Protocol {
 public:
  virtual ~Protocol();

  /// Short stable identifier, e.g. "adaptive", "greedy[2]".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Allocate m balls into n fresh bins using randomness from `gen`.
  /// \throws std::invalid_argument if n == 0.
  [[nodiscard]] virtual AllocationResult run(std::uint64_t m, std::uint32_t n,
                                             rng::Engine& gen) const = 0;
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

/// Shared argument validation for the two run() implementations.
void validate_run_args(std::uint64_t m, std::uint32_t n);

}  // namespace bbb::core
