#include "bbb/sim/experiment.hpp"

#include <sstream>

#include "bbb/core/protocols/registry.hpp"

namespace bbb::sim {

core::StateLayout ExperimentConfig::resolved_layout() const {
  return layout ? *layout : core::preferred_layout(protocol_spec, n, m);
}

std::string ExperimentConfig::describe() const {
  std::ostringstream os;
  os << protocol_spec << " m=" << m << " n=" << n << " reps=" << replicates
     << " seed=" << seed;
  if (layout) os << " layout=" << to_string(*layout);
  os << obs.describe();
  return os.str();
}

}  // namespace bbb::sim
