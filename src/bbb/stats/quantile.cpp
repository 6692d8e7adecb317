#include "bbb/stats/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bbb::stats {

double exact_quantile(std::vector<double> data, double q) {
  if (data.empty()) throw std::invalid_argument("exact_quantile: empty data");
  if (!(q >= 0.0 && q <= 1.0)) {  // also rejects NaN q
    throw std::invalid_argument("exact_quantile: q not in [0,1]");
  }
  for (const double x : data) {
    // A NaN poisons std::sort's strict weak ordering (the result would be
    // an arbitrary permutation), so there is no meaningful quantile.
    if (std::isnan(x)) throw std::invalid_argument("exact_quantile: NaN in data");
  }
  std::sort(data.begin(), data.end());
  const std::size_t last = data.size() - 1;
  const double pos = q * static_cast<double>(last);
  // Clamp both order statistics: for huge vectors the size-1 -> double
  // conversion rounds, and q*(size-1) (or its ceil) can land one past the
  // last element.
  const auto lo = std::min(static_cast<std::size_t>(std::floor(pos)), last);
  const auto hi = std::min(static_cast<std::size_t>(std::ceil(pos)), last);
  const double frac = pos - static_cast<double>(lo);
  return data[lo] + (data[hi] - data[lo]) * frac;
}

}  // namespace bbb::stats
