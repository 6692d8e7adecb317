#include "bbb/model/stage_drift.hpp"

#include <algorithm>
#include <stdexcept>

#include "bbb/core/metrics.hpp"
#include "bbb/core/protocols/registry.hpp"

namespace bbb::model {

namespace {

// Runs `stages` stages of n balls through the registry's adaptive rule,
// invoking the callback at the end of each stage with (tau, loads_before,
// loads_after, probes). Ball i of stage tau sees the bound ceil(i/n) = tau.
template <typename Callback>
void run_stages(std::uint32_t n, std::uint32_t stages, rng::Engine& gen, Callback&& cb) {
  if (n == 0) throw std::invalid_argument("stage run: n must be positive");
  if (stages == 0) throw std::invalid_argument("stage run: stages must be positive");
  const std::uint64_t m = static_cast<std::uint64_t>(n) * stages;
  const auto protocol = core::make_protocol("adaptive");
  const auto alloc = protocol->bind(n, m, protocol->preferred_layout(n, m));
  for (std::uint32_t tau = 1; tau <= stages; ++tau) {
    const std::vector<std::uint32_t> before = alloc->state().copy_loads();
    const std::uint64_t probes_before = alloc->probes();
    alloc->place_batch(n, gen);
    cb(tau, before, alloc->state().copy_loads(), alloc->probes() - probes_before);
  }
}

}  // namespace

std::vector<StageRecord> adaptive_stage_records(std::uint32_t n, std::uint32_t stages,
                                                rng::Engine& gen,
                                                std::uint32_t deep_hole) {
  std::vector<StageRecord> records;
  records.reserve(stages);
  run_stages(
      n, stages, gen,
      [&](std::uint32_t tau, const std::vector<std::uint32_t>& before,
          const std::vector<std::uint32_t>& after, std::uint64_t probes) {
        StageRecord rec;
        rec.stage = tau;
        // Phi "before" the stage is the end of stage tau-1 with exponent
        // (tau-1) + 2 - l; "after" uses exponent tau + 2 - l. The average
        // load at a stage boundary is exactly the stage index.
        rec.phi_before = core::exponential_potential(before, (tau - 1) * std::uint64_t{n});
        rec.phi_after = core::exponential_potential(after, tau * std::uint64_t{n});
        rec.drift = rec.phi_before > 0 ? rec.phi_after / rec.phi_before : 1.0;
        rec.probes = probes;
        std::uint64_t deep = 0, arrivals = 0;
        for (std::uint32_t i = 0; i < before.size(); ++i) {
          // Underloaded at the end of stage tau-1: load <= (tau-1) + 2 - C1.
          if (static_cast<std::int64_t>(before[i]) <=
              static_cast<std::int64_t>(tau) + 1 - static_cast<std::int64_t>(deep_hole)) {
            ++deep;
            arrivals += after[i] - before[i];
          }
        }
        rec.underloaded = deep;
        rec.mean_arrivals_deep =
            deep > 0 ? static_cast<double>(arrivals) / static_cast<double>(deep) : 0.0;
        records.push_back(rec);
      });
  return records;
}

std::vector<std::uint64_t> underloaded_arrival_histogram(std::uint32_t n,
                                                         std::uint32_t stages,
                                                         rng::Engine& gen,
                                                         std::uint32_t deep_hole,
                                                         std::uint32_t max_k) {
  std::vector<std::uint64_t> counts(max_k + 1, 0);
  run_stages(
      n, stages, gen,
      [&](std::uint32_t tau, const std::vector<std::uint32_t>& before,
          const std::vector<std::uint32_t>& after, std::uint64_t) {
        for (std::uint32_t i = 0; i < before.size(); ++i) {
          if (static_cast<std::int64_t>(before[i]) <=
              static_cast<std::int64_t>(tau) + 1 - static_cast<std::int64_t>(deep_hole)) {
            const std::uint32_t y = after[i] - before[i];
            ++counts[std::min(y, max_k)];
          }
        }
      });
  return counts;
}

}  // namespace bbb::model
