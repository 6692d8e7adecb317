#include "bbb/model/poissonized.hpp"

#include <algorithm>
#include <stdexcept>

#include "bbb/rng/distributions.hpp"
#include "bbb/rng/engine.hpp"

namespace bbb::model {

std::vector<std::uint32_t> exact_loads(std::uint64_t m, std::uint32_t n,
                                       rng::Engine& gen) {
  std::vector<std::uint32_t> loads(n, 0);
  for (std::uint64_t i = 0; i < m; ++i) {
    ++loads[rng::uniform_below(gen, n)];
  }
  return loads;
}

std::vector<std::uint32_t> poissonized_loads(double lambda, std::uint32_t n,
                                             rng::Engine& gen) {
  const rng::PoissonDist dist(lambda);
  std::vector<std::uint32_t> loads(n);
  for (auto& l : loads) l = static_cast<std::uint32_t>(dist(gen));
  return loads;
}

std::vector<std::uint64_t> level_counts_of(const std::vector<std::uint32_t>& loads) {
  if (loads.empty()) throw std::invalid_argument("level_counts_of: empty loads");
  const std::uint32_t max = *std::max_element(loads.begin(), loads.end());
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(max) + 1, 0);
  for (const std::uint32_t l : loads) ++counts[l];
  return counts;
}

double estimate_exact_probability(
    std::uint64_t m, std::uint32_t n, std::uint32_t trials, rng::Engine& gen,
    const std::function<bool(const std::vector<std::uint32_t>&)>& event) {
  std::uint32_t hits = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    if (event(exact_loads(m, n, gen))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

double estimate_poisson_probability(
    std::uint64_t m, std::uint32_t n, std::uint32_t trials, rng::Engine& gen,
    const std::function<bool(const std::vector<std::uint32_t>&)>& event) {
  const double lambda = static_cast<double>(m) / static_cast<double>(n);
  std::uint32_t hits = 0;
  for (std::uint32_t t = 0; t < trials; ++t) {
    if (event(poissonized_loads(lambda, n, gen))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace bbb::model
