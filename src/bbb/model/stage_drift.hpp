#pragma once
/// \file stage_drift.hpp
/// The stage-level analysis machinery of Section 3 (Lemmas 3.2-3.4).
///
/// adaptive's proof divides the allocation into stages of n balls. For a
/// fixed load vector at the start of a stage it studies
///   * Y_i — the number of balls an *underloaded* bin (load <= tau + 2 - C1)
///     receives during the stage; Lemma 3.2: Pr[Y_i >= k] >=
///     Pr[Poi(199/198) >= k] - 2e-10, i.e. underloaded bins catch up;
///   * the exponential-potential drift: Lemma 3.4: E[Phi^{tau+1}] <=
///     (1 - kappa/2) Phi^tau whenever Phi^tau >= rho * n.
///
/// This module runs the registry's own adaptive rule stage by stage to
/// expose both quantities so tests and bench_lemma34_drift can verify them
/// empirically.

#include <cstdint>
#include <vector>

#include "bbb/rng/xoshiro256.hpp"

namespace bbb::model {

/// Per-stage record from an instrumented adaptive run.
struct StageRecord {
  std::uint64_t stage = 0;          ///< tau (1-based)
  double phi_before = 0.0;          ///< Phi at the start of the stage
  double phi_after = 0.0;           ///< Phi at the end of the stage
  double drift = 0.0;               ///< phi_after / phi_before
  std::uint64_t probes = 0;         ///< probes spent in this stage
  std::uint64_t underloaded = 0;    ///< bins with >= `deep_hole` holes at start
  double mean_arrivals_deep = 0.0;  ///< mean balls received by those bins
};

/// Run adaptive for `stages` stages of n balls each, recording the
/// exponential potential (paper's eps = 1/200, exponent tau + 2 - load)
/// before/after every stage and the arrivals into deeply-underloaded bins.
/// \param deep_hole bins with load <= tau + 2 - deep_hole count as
///        underloaded (the paper's C1); default 4.
/// \throws std::invalid_argument if n == 0 or stages == 0.
[[nodiscard]] std::vector<StageRecord> adaptive_stage_records(
    std::uint32_t n, std::uint32_t stages, rng::Engine& gen,
    std::uint32_t deep_hole = 4);

/// Empirical distribution of stage arrivals Y into underloaded bins,
/// aggregated over an instrumented run: counts[k] = number of
/// (stage, underloaded bin) pairs that received exactly k balls. Compare
/// with Poi(199/198) per Lemma 3.2.
[[nodiscard]] std::vector<std::uint64_t> underloaded_arrival_histogram(
    std::uint32_t n, std::uint32_t stages, rng::Engine& gen, std::uint32_t deep_hole = 4,
    std::uint32_t max_k = 16);

}  // namespace bbb::model
