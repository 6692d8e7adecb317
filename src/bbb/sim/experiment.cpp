#include "bbb/sim/experiment.hpp"

#include <sstream>

namespace bbb::sim {

std::string ExperimentConfig::describe() const {
  std::ostringstream os;
  os << protocol_spec << " m=" << m << " n=" << n << " reps=" << replicates
     << " seed=" << seed;
  if (layout) os << " layout=" << to_string(*layout);
  os << obs.describe();
  return os.str();
}

}  // namespace bbb::sim
