#pragma once
/// \file trace.hpp
/// Time-series recording for streaming allocation: snapshot the load
/// metrics every `stride` balls. This is how the smoothness claims
/// (Corollary 3.5 vs. Lemma 4.2) become a curve over t rather than a single
/// end-of-run number.
///
/// Since the single-streaming-core refactor every per-point metric is read
/// off the allocator's incremental `core::BinState` in O(1) — the old
/// implementation rescanned all n loads at every trace point, which made
/// per-ball trajectories (stride 1) of large runs O(m n).

#include <cstdint>
#include <vector>

#include "bbb/core/rule.hpp"
#include "bbb/io/table.hpp"
#include "bbb/rng/xoshiro256.hpp"

namespace bbb::sim {

/// One snapshot of a running allocation.
struct TracePoint {
  std::uint64_t balls = 0;
  std::uint64_t probes = 0;
  std::uint32_t max_load = 0;
  std::uint32_t min_load = 0;
  double psi = 0.0;
  double log_phi = 0.0;
};

/// Drive a streaming allocator for m balls, snapshotting every `stride`
/// balls (and always at t = m). Per-point cost is O(1) — metrics come from
/// the allocator's incremental BinState, not a rescan of the loads.
[[nodiscard]] std::vector<TracePoint> trace_allocation(core::StreamingAllocator& alloc,
                                                       rng::Engine& gen,
                                                       std::uint64_t m,
                                                       std::uint64_t stride);

/// Render a trace as a Table (balls, probes, max, min, psi, ln_phi).
[[nodiscard]] io::Table trace_table(const std::vector<TracePoint>& points);

}  // namespace bbb::sim
