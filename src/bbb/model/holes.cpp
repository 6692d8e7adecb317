#include "bbb/model/holes.hpp"

#include <cmath>
#include <stdexcept>

#include "bbb/core/protocols/registry.hpp"

namespace bbb::model {

std::vector<HolesPoint> holes_trajectory(std::uint64_t m, std::uint32_t n,
                                         rng::Engine& gen, std::uint64_t stride) {
  if (m == 0) throw std::invalid_argument("holes_trajectory: m must be positive");
  if (stride == 0) stride = 1;
  // Bound with m_hint = m, threshold accepts a bin iff its load <=
  // ceil(m/n) = cap - 1. No engine exclusivity: `gen` stops at the last
  // entry the rule consumed.
  const auto protocol = core::make_protocol("threshold");
  const auto alloc = protocol->bind(n, m, protocol->preferred_layout(n, m));
  const std::uint64_t slots = (core::ceil_div(m, n) + 1) * n;

  std::vector<HolesPoint> points;
  std::uint64_t t_prev = 0;
  for (std::uint64_t placed = 1; placed <= m; ++placed) {
    (void)alloc->place(gen);
    const std::uint64_t t = alloc->probes();
    // Entries t_prev + 1 .. t - 1 were rejected: W_t held still there.
    for (std::uint64_t s = (t_prev / stride + 1) * stride; s < t; s += stride) {
      points.push_back({s, slots - (placed - 1), placed - 1});
    }
    if (t % stride == 0 || placed == m) points.push_back({t, slots - placed, placed});
    t_prev = t;
  }
  return points;
}

std::uint64_t theorem41_probe_budget(std::uint64_t m, std::uint32_t n) {
  if (n == 0) throw std::invalid_argument("theorem41_probe_budget: n must be positive");
  const auto phi = static_cast<double>(core::ceil_div(m, n));
  const double alpha = phi + std::pow(phi, 0.75) + 1.0;
  return static_cast<std::uint64_t>(std::ceil(alpha * static_cast<double>(n)));
}

}  // namespace bbb::model
