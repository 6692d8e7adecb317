#pragma once
/// \file quantile.hpp
/// Exact quantile estimation (sorting) for batch data.

#include <vector>

namespace bbb::stats {

/// Exact q-quantile of `data` (linear interpolation between order
/// statistics, the "type 7" convention used by R/numpy). `data` is copied.
/// \throws std::invalid_argument if data is empty or q outside [0,1].
[[nodiscard]] double exact_quantile(std::vector<double> data, double q);

}  // namespace bbb::stats
