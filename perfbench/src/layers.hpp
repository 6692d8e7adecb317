#pragma once
/// \file layers.hpp
/// The traced run's per-layer measurements. Each one times a loop of
/// calls into one module's public functions (rng, core, sim, dyn, shard)
/// from the benchmark's own code and records it as a span whose count is
/// the loop's work; run.py turns the spans into per-layer metrics.
///
/// Shapes follow the traced workload: the compact-layer loops run at the
/// workload's n, and the sim replicate decomposition uses the workload's
/// own spec, layout, n and m. Layers a workload does not drive are still
/// measured, so every traced run reports every metric: wide-layout loops
/// at min(n, 2^22) bins, the adaptive rule at min(n, 2^20) bins with
/// m = 8n (its own full shape on sim-adaptive), the dyn layer at the
/// dyn-churn shape, and the shard engine at the workload's n.

#include <cstdint>
#include <string>
#include <vector>

#include "machine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Run every layer measurement for `plan` and record its spans.
/// `dyn_plan` is the dyn-churn shape at the same size class. Returns the
/// sanity checks on the measured loops that failed (balls conserved,
/// bounds held).
[[nodiscard]] std::vector<std::string> measure_layers(const Plan& plan, const Plan& dyn_plan,
                                                      bool smoke, std::uint64_t seed,
                                                      const Machine& machine,
                                                      Tracer& tracer);

}  // namespace perfbench
